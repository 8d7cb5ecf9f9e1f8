"""Configuration parsing, experiment runners, determinism, and the CLI."""

import dataclasses
import json
import os
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from drchm import experiments
from drchm.catalog import CatalogRecord
from drchm.cli import main
from drchm.experiments import (
    MAX_WORKERS,
    MIN_EPSILON,
    ExperimentConfig,
    _replicate_map,
    _simulate_one,
    edge_count_ensemble,
    run_experiment,
    run_simulate,
    run_validate_gaussian,
    run_validate_marks,
    run_sample_limit,
)
from drchm.model import MIN_BETA, ModelParams
from drchm.oracles import mean_edge_count
from drchm.paths import (
    StepPath,
    build_edges,
    build_edges_brute_force,
    edge_count_path,
    mark_split_paths,
)
from drchm.sampler import SamplerConfig, sample_interactions, sample_vertices


def _base_config(**overrides):
    data = {
        "model": {"beta": 0.25, "gamma": 0.2, "gamma_prime": 0.2, "n": 50.0},
        "sampler": {"master_seed": 1},
        "kind": "simulate",
        "replicates": 5,
        "eval_times": [0.25, 0.5, 0.75],
    }
    data.update(overrides)
    return data


def _stable(**overrides):
    """Overrides for a heavy-tailed-regime config."""
    return {"model": {"beta": 0.25, "gamma": 0.7, "gamma_prime": 0.2, "n": 50.0}, **overrides}


class TestConfigParsing:
    def test_round_trip(self):
        cfg = ExperimentConfig.from_dict(_base_config())
        assert cfg.model == ModelParams(0.25, 0.2, 0.2, 50.0)
        assert cfg.sampler.master_seed == 1
        assert cfg.eval_times == (0.25, 0.5, 0.75)
        back = ExperimentConfig.from_dict(
            json.loads(json.dumps(dataclasses.asdict(cfg)))
        )
        assert back == cfg

    def test_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict(_base_config(bogus=1))

    def test_unknown_model_key(self):
        data = _base_config()
        data["model"]["extra"] = 1
        with pytest.raises(ValueError, match="unknown model keys"):
            ExperimentConfig.from_dict(data)

    def test_unknown_sampler_key(self):
        data = _base_config()
        data["sampler"]["extra"] = 1
        with pytest.raises(ValueError, match="unknown sampler keys"):
            ExperimentConfig.from_dict(data)

    def test_missing_required(self):
        with pytest.raises(ValueError, match="missing required"):
            ExperimentConfig.from_dict({"kind": "simulate"})

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="unknown experiment kind"):
            ExperimentConfig.from_dict(_base_config(kind="frobnicate"))

    def test_bad_replicates(self):
        with pytest.raises(ValueError, match="replicates"):
            ExperimentConfig.from_dict(_base_config(replicates=0))

    def test_unsorted_eval_times(self):
        with pytest.raises(ValueError, match="sorted"):
            ExperimentConfig.from_dict(_base_config(eval_times=[0.5, 0.25]))

    def test_eval_times_out_of_range(self):
        with pytest.raises(ValueError, match="eval_times"):
            ExperimentConfig.from_dict(_base_config(eval_times=[0.5, 1.5]))

    def test_from_json(self, tmp_path):
        fname = tmp_path / "cfg.json"
        fname.write_text(json.dumps(_base_config()))
        assert ExperimentConfig.from_json(fname).replicates == 5

    @pytest.mark.parametrize("key", ["replicates", "workers", "grid_points"])
    def test_bool_is_not_an_integer(self, key):
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_dict(_base_config(**{key: True}))

    @pytest.mark.parametrize("n", [0, -1.0, float("inf"), float("nan"), True])
    def test_window_must_be_finite_positive(self, n):
        data = _base_config()
        data["model"]["n"] = n
        with pytest.raises(ValueError, match="n must be"):
            ExperimentConfig.from_dict(data)

    def test_n_ladder_entries_checked(self):
        with pytest.raises(ValueError, match="n_ladder"):
            ExperimentConfig.from_dict(_base_config(n_ladder=[100, 0]))

    @pytest.mark.parametrize("kind", ["validate-gaussian", "validate-stable", "validate-marks"])
    def test_empty_eval_times_rejected_where_needed(self, kind):
        with pytest.raises(ValueError, match="eval_times"):
            ExperimentConfig.from_dict(_base_config(kind=kind, eval_times=[]))

    def test_empty_eval_times_allowed_for_simulate(self):
        assert ExperimentConfig.from_dict(_base_config(eval_times=[])).eval_times == ()

    def test_default_mark_threshold(self):
        cfg = ExperimentConfig.from_dict(_base_config())
        assert cfg.mark_threshold == pytest.approx(50.0 ** (-2.0 / 3.0))


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            cfg = ExperimentConfig.from_dict(
                _base_config(
                    out_dir=str(tmp_path / name),
                    write_paths=True,
                    replicates=3,
                )
            )
            res = run_simulate(cfg)
            outs.append(res)
        for fa, fb in zip(
            [outs[0]["report"]] + outs[0]["paths"],
            [outs[1]["report"]] + outs[1]["paths"],
        ):
            assert open(fa, "rb").read() == open(fb, "rb").read()

    def test_path_files_parse(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            _base_config(out_dir=str(tmp_path), write_paths=True, replicates=2)
        )
        res = run_simulate(cfg)
        for f in res["paths"]:
            data = np.loadtxt(f, delimiter=",", skiprows=1, ndmin=2)
            StepPath(data[:, 0], data[:, 1])

    def test_summary_contents(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            _base_config(out_dir=str(tmp_path), replicates=4)
        )
        res = run_simulate(cfg)
        assert res["summary"]["max_missed_edge_bound"] <= 1.0
        lines = [json.loads(l) for l in open(res["report"])]
        assert len(lines) == 5  # 4 replicates + summary

    def test_single_replicate_sentinels(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            _base_config(out_dir=str(tmp_path), replicates=1)
        )
        res = run_simulate(cfg)
        per_time = res["summary"]["per_time"]
        assert all(np.isinf(pt["mean_se"]) for pt in per_time)


class TestStrictJson:
    @staticmethod
    def _reject(token):
        raise ValueError(f"non-strict JSON token {token}")

    @pytest.mark.parametrize(
        "kind, replicates",
        [("simulate", 1), ("validate-gaussian", 2), ("validate-gaussian", 30)],
    )
    def test_report_lines_are_strict_json(self, tmp_path, kind, replicates):
        # At the parent each of these reports held bare NaN or Infinity tokens.
        cfg = ExperimentConfig.from_dict(
            _base_config(
                kind=kind, replicates=replicates, n_ladder=[20, 40],
                sampler={"master_seed": 3}, out_dir=str(tmp_path),
            )
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            text = open(run_experiment(cfg)["report"]).read()
        assert "null" in text
        for line in text.splitlines():
            json.loads(line, parse_constant=self._reject)

    def test_catalog_record_is_strict_json(self, tmp_path, monkeypatch):
        rec = CatalogRecord("L", "equality", 3, float("nan"), 0)
        monkeypatch.setattr(experiments, "lemma_catalog_check", lambda master_seed: [rec])
        cfg = ExperimentConfig.from_dict(
            _base_config(kind="oracle-report", out_dir=str(tmp_path), **_stable())
        )
        with open(run_experiment(cfg)["catalog"]) as fh:
            line = fh.read()
        assert json.loads(line, parse_constant=self._reject) == {
            "lemma_id": "L", "kind": "equality", "draws": 3,
            "max_rel_err": None, "bound_violations": 0, "max_bound_ratio": 0.0,
            "passed": False,
        }

    def test_catalog_bound_ratio_nan_is_null(self, tmp_path, monkeypatch):
        rec = CatalogRecord("B", "bound", 3, 0.0, 3, float("nan"))
        monkeypatch.setattr(experiments, "lemma_catalog_check", lambda master_seed: [rec])
        cfg = ExperimentConfig.from_dict(
            _base_config(kind="oracle-report", out_dir=str(tmp_path), **_stable())
        )
        with open(run_experiment(cfg)["catalog"]) as fh:
            line = fh.read()
        assert json.loads(line, parse_constant=self._reject) == {
            "lemma_id": "B", "kind": "bound", "draws": 3,
            "max_rel_err": 0.0, "bound_violations": 3, "max_bound_ratio": None,
            "passed": False,
        }


class TestEnsemble:
    def test_worker_count_irrelevant(self, tmp_path):
        p = ModelParams(0.25, 0.2, 0.2, 30.0)
        scfg = SamplerConfig(master_seed=5)
        serial = edge_count_ensemble(p, scfg, (0.5,), 20, workers=1)
        parallel = edge_count_ensemble(p, scfg, (0.5,), 20, workers=4)
        np.testing.assert_array_equal(serial["counts"], parallel["counts"])
        # The runners share the ensemble's replicate map: their report and
        # CSV files are byte-identical at any worker count.
        stable = {"beta": 0.25, "gamma": 0.7, "gamma_prime": 0.2, "n": 50.0}
        for name, data in (
            ("simulate", _base_config(replicates=6, write_paths=True)),
            ("marks", _base_config(kind="validate-marks", replicates=6)),
            ("limit-g", _base_config(kind="sample-limit", replicates=6, grid_points=11)),
            ("limit-s", _base_config(kind="sample-limit", replicates=6, model=stable, epsilon=0.1)),
        ):
            outs = []
            for workers in (1, 4):
                out = tmp_path / f"{name}-{workers}"
                run_experiment(
                    ExperimentConfig.from_dict({**data, "out_dir": str(out), "workers": workers})
                )
                outs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
            assert outs[0] and outs[0] == outs[1]

    @pytest.mark.parametrize("cores, pools", [(1, []), (2, [2]), (8, [4])])
    def test_threads_sized_to_usable_cores(self, monkeypatch, cores, pools):
        started = []

        class Pool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(experiments, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False
        )
        assert _replicate_map(lambda s: s * s, range(10), 4) == [s * s for s in range(10)]
        assert started == pools

    @pytest.mark.parametrize("n", [3.0, 20.0])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_pairing_equals_brute_force_ensemble(self, monkeypatch, n, workers):
        # Criterion 7's shape, mark split: every array of the ensemble is
        # bit for bit the one the all-pairs oracle gives, whatever order
        # the indexed pairing returns its edges in.
        params = ModelParams(0.25, 0.7, 0.2, n)
        scfg = SamplerConfig(master_seed=24, w_min=1e-8)
        args = (params, scfg, (0.25, 0.5, 0.75), 30)
        kwargs = dict(u_threshold=n ** (-2.0 / 3.0), workers=workers)
        fast = edge_count_ensemble(*args, **kwargs)
        monkeypatch.setattr(experiments, "build_edges", build_edges_brute_force)
        slow = edge_count_ensemble(*args, **kwargs)
        assert fast["edges"].sum() > 0
        for key in ("counts", "low_counts", "high_counts", "high_sup", "edges"):
            assert fast[key].tobytes() == slow[key].tobytes(), key

    @pytest.mark.parametrize(
        "params, thr",
        [
            (ModelParams(0.25, 0.2, 0.2, 50.0), 50.0 ** (-2.0 / 3.0)),
            (ModelParams(0.25, 0.7, 0.2, 200.0), 0.3),
        ],
    )
    def test_marginals_equal_mark_split_paths(self, params, thr):
        # counts, low_counts, high_counts and high_sup equal the path route
        # exactly, also at eval times that coincide with edge events.
        scfg = SamplerConfig(master_seed=9, w_min=1e-6)
        for stream in range(4):
            vs = sample_vertices(params, scfg, stream)
            edges = build_edges(params, vs, sample_interactions(params, scfg, vs, stream))
            events = np.concatenate([edges.activation[:2], edges.deactivation[:2]])
            times = np.unique(np.concatenate([[0.0, 0.5, 1.0], events[(events >= 0) & (events <= 1)]]))
            rep = _simulate_one(params, scfg, stream, tuple(times), thr)
            low, high = mark_split_paths(edges, vs, thr)
            assert np.all(rep["counts"] == edge_count_path(edges)(times))
            assert np.all(rep["low_counts"] == low(times))
            assert np.all(rep["high_counts"] == high(times))
            assert rep["high_sup"] == float(
                np.max(np.abs(high.values - mean_edge_count(params, thr, 1.0)))
            )
            assert rep["low_counts"].dtype == low(times).dtype


class TestRunners:
    def test_within_4se_false_without_a_finite_se(self, tmp_path):
        # At 2 replicates no variance or covariance has an SE, so no record
        # may claim agreement within 4 SE.
        cfg = ExperimentConfig.from_dict(
            _base_config(
                kind="validate-gaussian", replicates=2, n_ladder=[20, 40],
                out_dir=str(tmp_path),
            )
        )
        records = run_validate_gaussian(cfg)["records"]
        checked = [r for r in records if r["section"] in ("variance", "covariance")]
        assert len(checked) == 3 + 6
        assert not any(r["within_4se"] for r in checked)

    def test_validate_gaussian_small(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            _base_config(
                kind="validate-gaussian",
                replicates=30,
                out_dir=str(tmp_path),
                n_ladder=[20, 50],
            )
        )
        res = run_validate_gaussian(cfg)
        sections = {r["section"] for r in res["records"]}
        assert {
            "variance",
            "covariance",
            "normality",
            "low_mark",
            "low_mark_trend",
        } <= sections

    def test_validate_gaussian_warns_in_marginal_regime(self, tmp_path):
        data = _base_config(
            kind="validate-gaussian", replicates=2, out_dir=str(tmp_path)
        )
        data["model"]["gamma"] = 0.4
        cfg = ExperimentConfig.from_dict(data)
        with pytest.warns(UserWarning, match="1/4"):
            run_validate_gaussian(cfg)

    def test_validate_marks_identities(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            _base_config(
                kind="validate-marks", replicates=10, out_dir=str(tmp_path)
            )
        )
        res = run_validate_marks(cfg)
        summary = res["records"][-1]
        assert summary["max_pm_identity_err"] == 0.0
        assert summary["max_split_identity_err"] == 0.0

    def test_validate_marks_single_replicate(self, tmp_path):
        for replicates in (1, 3):
            out = tmp_path / str(replicates)
            cfg = _base_config(kind="validate-marks", replicates=replicates, out_dir=str(out))
            fname = tmp_path / f"marks-{replicates}.json"
            fname.write_text(json.dumps(cfg))
            assert main(["validate-marks", "--config", str(fname)]) == 0
            lines = [json.loads(l) for l in open(out / "validate_marks.jsonl")]
            reps, summary = lines[:-1], lines[-1]
            assert len(reps) == replicates
            pm = max(r["pm_identity_max_abs_err"] for r in reps)
            split = max(r["split_identity_max_abs_err"] for r in reps)
            assert (summary["max_pm_identity_err"], summary["max_split_identity_err"]) == (pm, split)

    def test_sample_limit_gaussian(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            _base_config(
                kind="sample-limit",
                replicates=3,
                out_dir=str(tmp_path),
                grid_points=21,
            )
        )
        res = run_sample_limit(cfg)
        assert len(res["paths"]) == 3
        data = np.loadtxt(res["paths"][0], delimiter=",", skiprows=1)
        assert data.shape == (21, 2)

    def test_sample_limit_stable(self, tmp_path):
        data = _base_config(
            kind="sample-limit",
            replicates=3,
            out_dir=str(tmp_path),
            epsilon=0.1,
        )
        data["model"]["gamma"] = 0.7
        res = run_sample_limit(ExperimentConfig.from_dict(data))
        assert len(res["paths"]) == 3
        assert res["records"][-1]["section"] == "summary"

    def test_dispatch(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            _base_config(replicates=1, out_dir=str(tmp_path))
        )
        assert "report" in run_experiment(cfg)


class TestCLI:
    def _write(self, tmp_path, data, name="cfg.json"):
        fname = tmp_path / name
        fname.write_text(json.dumps(data))
        return str(fname)

    def test_success_exit_zero(self, tmp_path, capsys):
        cfg = self._write(tmp_path, _base_config(replicates=2))
        code = main(
            ["simulate", "--config", cfg, "--out", str(tmp_path / "out")]
        )
        assert code == 0
        assert "simulate_summary.jsonl" in capsys.readouterr().out

    def test_seed_override_changes_output(self, tmp_path):
        cfg = self._write(tmp_path, _base_config(replicates=2))
        for seed, sub in ((1, "s1"), (2, "s2")):
            assert (
                main(
                    [
                        "simulate",
                        "--config",
                        cfg,
                        "--seed",
                        str(seed),
                        "--out",
                        str(tmp_path / sub),
                    ]
                )
                == 0
            )
        a = (tmp_path / "s1" / "simulate_summary.jsonl").read_bytes()
        b = (tmp_path / "s2" / "simulate_summary.jsonl").read_bytes()
        assert a != b

    def test_config_error_exit_two(self, tmp_path):
        cfg = self._write(tmp_path, _base_config(bogus=1))
        assert main(["simulate", "--config", cfg]) == 2

    def test_kind_mismatch_exit_two(self, tmp_path):
        cfg = self._write(tmp_path, _base_config())
        assert main(["validate-stable", "--config", cfg]) == 2

    def test_regime_error_exit_two(self, tmp_path):
        data = _base_config(kind="validate-gaussian", replicates=2)
        data["model"]["gamma"] = 0.7
        cfg = self._write(tmp_path, data)
        assert main(["validate-gaussian", "--config", cfg]) == 2

    def test_truncation_exit_three(self, tmp_path):
        data = _base_config(replicates=1)
        data["model"] = {
            "beta": 0.25,
            "gamma": 0.7,
            "gamma_prime": 0.2,
            "n": 5000.0,
        }
        data["sampler"] = {"w_min": 0.5, "missed_edge_tolerance": 1e-4}
        cfg = self._write(tmp_path, data)
        assert (
            main(["simulate", "--config", cfg, "--out", str(tmp_path / "x")])
            == 3
        )

    @pytest.mark.parametrize(
        "beta, gamma_prime, w_min, code, hint",
        [
            (0.25, 0.999, 5e-324, 2, "raise w_min"),
            (1e-100, 0.999, 5e-324, 2, "raise w_min"),
            (0.25, 0.95, 5e-324, 0, None),
            (1e100, 0.2, 1e-5, 2, "lower beta"),
        ],
        ids=["0.25-0.999-2", "1e-100-0.999-2", "0.25-0.95-0", "1e+100-0.2-1e-05-2"],
    )
    def test_margin_past_float_range_exit_two(
        self, tmp_path, capsys, beta, gamma_prime, w_min, code, hint
    ):
        # At w_min = 5e-324 and gamma_prime = 0.999 the last band's margin
        # is about 1.5e308 at beta 0.25, so n + 2 * margin overflows; at
        # beta 1e-100, w_min**(-gamma_prime) alone does.  At 0.95 this
        # sample's margins fit.  At beta 1e100 every margin fits, but the
        # first band's Poisson mean is past numpy's limit.
        data = _base_config(replicates=1)
        data["model"] = {"beta": beta, "gamma": 0.7, "gamma_prime": gamma_prime, "n": 5.0}
        data["sampler"] = {"master_seed": 0, "w_min": w_min, "missed_edge_tolerance": 1e300}
        cfg = self._write(tmp_path, data)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert err.startswith("error: parameter regime:") and err.count("\n") == 1
            assert hint in err

    def _exit_two_one_line(self, tmp_path, capsys, kind, data):
        code = main([kind, "--config", self._write(tmp_path, data), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: invalid configuration:") and err.count("\n") == 1

    def test_empty_eval_times_exit_two(self, tmp_path, capsys):
        data = _base_config(kind="validate-gaussian", replicates=3, eval_times=[])
        self._exit_two_one_line(tmp_path, capsys, "validate-gaussian", data)

    def test_bool_replicates_exit_two(self, tmp_path, capsys):
        self._exit_two_one_line(tmp_path, capsys, "simulate", _base_config(replicates=True))

    def test_zero_window_exit_two(self, tmp_path, capsys):
        data = _base_config(replicates=2)
        data["model"]["n"] = 0
        self._exit_two_one_line(tmp_path, capsys, "simulate", data)

    @pytest.mark.parametrize("n", [-1, float("nan"), "x", True, [], 0])
    def test_invalid_window_has_the_config_message(self, tmp_path, capsys, n):
        # one range and one message for every invalid model.n, not the
        # library's wider [0, inf) for some values and the config's for 0
        data = _base_config(replicates=1)
        data["model"]["n"] = n
        code = main(["simulate", "--config", self._write(tmp_path, data)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: invalid configuration: model.n must be a number in (0, 1e+09], got {n!r}\n"
        )

    @pytest.mark.parametrize("n", [1e300, 1e10])
    def test_huge_window_exit_two(self, tmp_path, capsys, n):
        data = _base_config(replicates=1)
        data["model"]["n"] = n
        self._exit_two_one_line(tmp_path, capsys, "simulate", data)
        data = _base_config(kind="validate-gaussian", replicates=3, n_ladder=[100, n])
        self._exit_two_one_line(tmp_path, capsys, "validate-gaussian", data)

    @pytest.mark.parametrize("beta", [float("inf"), float("nan")])
    def test_non_finite_beta_exit_two(self, tmp_path, capsys, beta):
        data = _base_config(replicates=1)
        data["model"]["beta"] = beta
        self._exit_two_one_line(tmp_path, capsys, "simulate", data)

    @pytest.mark.parametrize(
        "kind, overrides",
        [
            ("sample-limit", _stable(epsilon=0)),
            ("validate-stable", _stable(ks_epsilon=2)),
            ("validate-stable", _stable(eps_sequence=[0.1])),
            ("validate-stable", _stable(eps_sequence=[0.05, 0.1])),
            ("validate-stable", _stable(jump_samples=50)),
            ("validate-stable", _stable(jump_samples=81)),
            ("sample-limit", {"grid_points": 1000}),
            ("simulate", {"sampler": {"master_seed": -1}}),
            ("simulate", {"sampler": {"master_seed": 1.5}}),
            ("simulate", {"sampler": {"master_seed": "x"}}),
            ("simulate", {"model": {**_stable()["model"], "beta": 1e300}}),
            ("simulate", {"out_dir": 0}),
            ("simulate", {"out_dir": ""}),
            ("simulate", {"model": {**_base_config()["model"], "beta": True}}),
            ("simulate", {"epsilon": True}),
            ("simulate", {"ks_epsilon": True}),
            ("simulate", {"sampler": {"missed_edge_tolerance": True}}),
            ("simulate", {"sampler": {"missed_edge_tolerance": float("inf")}}),
            ("simulate", {"eval_times": ["0.25", "0.5"]}),
            ("simulate", {"eval_times": [False, True]}),
            ("simulate", {"eps_sequence": ["0.1", "0.05"]}),
            ("simulate", {"write_paths": "x"}),
            ("simulate", {"write_paths": 0}),
            ("simulate", {"workers": MAX_WORKERS + 1}),
            ("sample-limit", _stable(grid_points=513)),
            ("simulate", {"sampler": {"band_ratio": 0.5}}),
            ("sample-limit", {"model": {**_stable()["model"], "beta": 1e-300}}),
            ("sample-limit", _stable(epsilon=1e-10)),
            ("validate-stable", _stable(ks_epsilon=1e-10)),
            ("validate-stable", _stable(eps_sequence=[0.1, 1e-10])),
        ],
    )
    def test_fields_checked_at_the_boundary_exit_two(self, tmp_path, capsys, kind, overrides):
        data = _base_config(kind=kind, replicates=2, **overrides)
        self._exit_two_one_line(tmp_path, capsys, kind, data)

    def test_smallest_jump_sample_accepted(self):
        data = _base_config(kind="validate-stable", **_stable(jump_samples=82))
        assert ExperimentConfig.from_dict(data).jump_samples == 82

    def test_smallest_scale_and_level_run(self, tmp_path):
        # The floors MIN_BETA and MIN_EPSILON are accepted, and the jump
        # measure stays finite at the smallest scale.
        data = _base_config(kind="sample-limit", replicates=2, grid_points=11, **_stable(epsilon=0.1))
        data["model"]["beta"] = MIN_BETA
        cfg = self._write(tmp_path, data)
        assert main(["sample-limit", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        eps = _stable(epsilon=MIN_EPSILON, ks_epsilon=MIN_EPSILON)
        cfg = ExperimentConfig.from_dict(_base_config(kind="validate-stable", **eps))
        assert cfg.epsilon == cfg.ks_epsilon == MIN_EPSILON

    def test_negative_seed_flag_exit_two(self, tmp_path, capsys):
        cfg = self._write(tmp_path, _base_config())
        assert main(["simulate", "--config", cfg, "--seed", "-1"]) == 2
        assert "master_seed" in capsys.readouterr().err

    def test_workers_flag_over_cap_exit_two(self, tmp_path, capsys):
        # refused while the config is read, before any worker pool starts
        cfg = self._write(tmp_path, _base_config())
        argv = ["simulate", "--config", cfg, "--workers", str(MAX_WORKERS + 1)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid configuration: workers") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "kind, overrides",
        [
            ("validate-marks", {"model": {**_base_config()["model"], "n": 0.5}}),
            (
                "validate-stable",
                _stable(
                    n_ladder=[0.5, 1.0], jump_samples=100, epsilon=0.1,
                    ks_epsilon=0.1, eps_sequence=[0.1, 0.05],
                ),
            ),
        ],
    )
    def test_window_below_one_exit_zero(self, tmp_path, kind, overrides):
        # the default mark threshold n^(-2/3) is capped at 1 for n < 1
        cfg = self._write(tmp_path, _base_config(kind=kind, replicates=3, **overrides))
        assert main([kind, "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("kind", experiments.EXPERIMENT_KINDS)
    @pytest.mark.parametrize("out", ["afile", "afile/sub", "x" * 300])
    def test_unusable_out_dir_exit_two(self, tmp_path, capsys, monkeypatch, kind, out):
        # an existing file, a path under a file, a name too long to create:
        # one line on stderr, and the experiment never starts
        (tmp_path / "afile").write_text("")
        monkeypatch.setattr("drchm.cli.run_experiment", lambda cfg: pytest.fail("ran"))
        cfg = self._write(tmp_path, _base_config(kind=kind))
        assert main([kind, "--config", cfg, "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: output directory:") and err.count("\n") == 1

    def test_constant_counts_have_no_normality(self, tmp_path):
        # At n = 1e-6 every replicate counts 0 edges: the normality records
        # carry no statistics and do not reject.
        data = _base_config(
            kind="validate-gaussian", replicates=100, n_ladder=[10, 20],
            model={**_base_config()["model"], "n": 1e-6},
        )
        out = tmp_path / "out"
        code = main(["validate-gaussian", "--config", self._write(tmp_path, data), "--out", str(out)])
        assert code == 0
        lines = [json.loads(l) for l in open(out / "validate_gaussian.jsonl")]
        normality = [r for r in lines if r["section"] == "normality"]
        assert len(normality) == 3
        for r in normality:
            assert r["skew_z"] is r["kurt_z"] is r["omnibus"] is None
            assert r["reject"] is False

    def test_missing_config_file(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
