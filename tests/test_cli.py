import json
import time

import numpy as np
import pytest

import schedlab.cli as cli


HET_POLICY = '{"type": "het", "q_th": 2}'


def run_cli(*argv) -> int:
    return cli.main(list(argv))


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSimulate:
    def test_writes_expected_files(self, ref_cfg_path, tmp_path):
        out = tmp_path / "sim"
        rc = run_cli(
            "simulate", "--config", str(ref_cfg_path), "--policy", HET_POLICY,
            "--horizon", "40000", "--replications", "2", "--seed", "3",
            "--out", str(out),
        )
        assert rc == 0
        header, rows = read_csv(out / "overflow.csv")
        assert header == ["B", "prob", "ci_low", "ci_high", "n_events"]
        assert len(rows) == 8
        probs = [float(r[1]) for r in rows]
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        doc = json.loads((out / "result.json").read_text())
        assert doc["spec_echo"]["seed"] == 3
        assert doc["spec_echo"]["policy"]["type"] == "het"
        assert len(doc["empirical_phi"]) == 3

    def test_missing_config_exits_2_without_outputs(self, tmp_path):
        out = tmp_path / "nope"
        rc = run_cli(
            "simulate", "--config", str(tmp_path / "absent.json"),
            "--policy", HET_POLICY, "--out", str(out),
        )
        assert rc == 2
        assert not out.exists()

    def test_single_tiny_replication_is_valid(self, ref_cfg_path, tmp_path):
        out = tmp_path / "tiny"
        rc = run_cli(
            "simulate", "--config", str(ref_cfg_path), "--policy", HET_POLICY,
            "--horizon", "500", "--replications", "1", "--thresholds", "2,4",
            "--out", str(out),
        )
        assert rc == 0
        header, rows = read_csv(out / "overflow.csv")
        assert len(rows) == 2
        for r in rows:
            lo, hi = float(r[2]), float(r[3])
            assert hi > lo  # wide interval, still well-formed

    def test_bad_policy_json_exits_2(self, ref_cfg_path, tmp_path):
        rc = run_cli(
            "simulate", "--config", str(ref_cfg_path),
            "--policy", '{"type": "unknown"}', "--out", str(tmp_path / "x"),
        )
        assert rc == 2


class TestSweep:
    def test_two_value_sweep(self, ref_cfg_path, tmp_path):
        out = tmp_path / "sweep"
        rc = run_cli(
            "sweep", "--config", str(ref_cfg_path), "--policy", '{"type": "mw", "alpha": 1}',
            "--values", "1,7", "--horizon", "20000", "--replications", "2",
            "--out", str(out),
        )
        assert rc == 0
        header, rows = read_csv(out / "decay_vs_param.csv")
        assert header == ["param", "decay_rate", "stderr", "n_used", "iopt"]
        assert len(rows) == 2
        assert (out / "fig1-like.svg").read_text().startswith("<svg")

    def test_degenerate_sweep_rejected(self, ref_cfg_path, tmp_path):
        rc = run_cli(
            "sweep", "--config", str(ref_cfg_path), "--policy", HET_POLICY,
            "--values", "2", "--out", str(tmp_path / "x"),
        )
        assert rc == 2


class TestIopt:
    def test_writes_value_and_phi(self, ref_cfg_path, tmp_path):
        out = tmp_path / "iopt"
        rc = run_cli("iopt", "--config", str(ref_cfg_path), "--out", str(out))
        assert rc == 0
        doc = json.loads((out / "iopt.json").read_text())
        assert 0.0 < doc["value"] < 1.0
        header, rows = read_csv(out / "phi_opt.csv")
        assert header == ["state", "user", "phi"]
        assert len(rows) == 12
        # state m=3 (index 2) concentrates on user 0
        phi_m3_u0 = [float(r[2]) for r in rows if r[0] == "2" and r[1] == "0"][0]
        assert phi_m3_u0 > 0.98

    def test_over_vertex_cap_exits_3(self, tmp_path, capsys):
        # 5 users x 4 states with generic rates: C(46, 5) hyperplane subsets
        rates = np.random.default_rng(0).uniform(1.0, 9.0, size=(4, 5))
        cfg_path = tmp_path / "generic5x4.json"
        cfg_path.write_text(json.dumps({
            "n_users": 5, "n_states": 4, "state_probs": [0.25] * 4,
            "rate_matrix": rates.tolist(), "arrival_rates": [0.1] * 5,
        }))
        out = tmp_path / "x"
        start = time.monotonic()
        rc = run_cli("iopt", "--config", str(cfg_path), "--out", str(out))
        assert time.monotonic() - start < 1.0
        assert rc == 3
        assert "1370754" in capsys.readouterr().err
        assert not out.exists()


class TestRegions:
    def test_boundaries_move_with_q_th(self, ref_cfg_path, tmp_path):
        outs = []
        for q_th in ("2", "10"):
            out = tmp_path / f"reg{q_th}"
            rc = run_cli(
                "regions", "--config", str(ref_cfg_path),
                "--policy", f'{{"type": "het", "q_th": {q_th}}}',
                "--axes", "0,2", "--grid-max", "20", "--grid-step", "1",
                "--out", str(out),
            )
            assert rc == 0
            outs.append((out / "regions.csv").read_text())
        assert outs[0] != outs[1]  # different thresholds, different boundaries

    def test_identical_axes_exit_2(self, ref_cfg_path, tmp_path):
        rc = run_cli(
            "regions", "--config", str(ref_cfg_path), "--policy", HET_POLICY,
            "--axes", "1,1", "--out", str(tmp_path / "x"),
        )
        assert rc == 2

    def test_step_beyond_max_exit_2(self, ref_cfg_path, tmp_path):
        rc = run_cli(
            "regions", "--config", str(ref_cfg_path), "--policy", HET_POLICY,
            "--axes", "0,2", "--grid-max", "5", "--grid-step", "10",
            "--out", str(tmp_path / "x"),
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "fixed, problem",
        [
            ("1,2", "one entry per user"),
            ("1,2,3,4,5", "one entry per user"),
            ("nan,0,0,0", "finite"),
            ("-5,0,0,0", ">= 0"),
        ],
    )
    def test_bad_fixed_queues_exit_2(self, ref_cfg_path, tmp_path, capsys, fixed, problem):
        out = tmp_path / "x"
        rc = run_cli(
            "regions", "--config", str(ref_cfg_path), "--policy", HET_POLICY,
            "--axes", "0,2", f"--fixed-queues={fixed}", "--out", str(out),
        )
        assert rc == 2
        assert problem in capsys.readouterr().err
        assert not out.exists()


class TestCompare:
    def test_three_rows_and_determinism(self, ref_cfg_path, tmp_path):
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        for out in (out1, out2):
            rc = run_cli(
                "compare", "--config", str(ref_cfg_path),
                "--horizon", "20000", "--replications", "2", "--seed", "11",
                "--out", str(out),
            )
            assert rc == 0
        text1 = (out1 / "compare.csv").read_bytes()
        text2 = (out2 / "compare.csv").read_bytes()
        assert text1 == text2
        header, rows = read_csv(out1 / "compare.csv")
        assert [r[0] for r in rows] == ["het", "exp", "mw"]
        assert header[:4] == ["policy", "param", "decay_rate", "decay_stderr"]

    def test_eta_domain_violation_exit_2(self, ref_cfg_path, tmp_path):
        rc = run_cli(
            "compare", "--config", str(ref_cfg_path), "--eta", "0",
            "--horizon", "1000", "--out", str(tmp_path / "x"),
        )
        assert rc == 2
