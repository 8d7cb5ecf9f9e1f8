"""Package metadata and import footprint."""

import os
import re
import subprocess
import sys
from pathlib import Path

import drchm


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    project = text.split("[project]", 1)[1].split("\n[", 1)[0]
    declared = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE).group(1)
    assert drchm.__version__ == declared


FOOTPRINT = """
import sys
import drchm, drchm.cli
from drchm import ModelParams, SamplerConfig
from drchm.catalog import lemma_catalog_check
from drchm.experiments import edge_count_ensemble
from drchm.limits import GaussianGrid, stable_marginals
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
loaded = set(sys.modules)
lemma_catalog_check(draws=1)
params = ModelParams(beta=0.25, gamma=0.7, gamma_prime=0.2, n=100.0)
cfg = SamplerConfig(master_seed=1)
for workers in (1, 2):
    edge_count_ensemble(params, cfg, (0.5,), 3, u_threshold=100.0 ** (-2 / 3), workers=workers)
stable_marginals(params, 0.01, 0.5, 3, cfg)
GaussianGrid.build(ModelParams(beta=0.25, gamma=0.2, gamma_prime=0.2, n=50.0), [0.0, 0.5, 1.0])
print(sorted(set(sys.modules) - loaded))
"""


def test_import_footprint():
    # scipy.special is most of a cold start, so the package loads no scipy
    # module at import; and a module first loaded by the catalog, an
    # ensemble, the limit marginals or a Gaussian-limit grid would put its
    # import inside timed work
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(drchm.__file__))}
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT], capture_output=True, text=True, env=env, check=True
    )
    at_import, during_work = proc.stdout.splitlines()
    assert at_import == "[]"
    assert during_work == "[]"
