import json
import math
import re
import sys
import time

import numpy as np
import pytest

import schedlab.cli as cli
from schedlab import simulator, svg


HET_POLICY = '{"type": "het", "q_th": 2}'


def run_cli(*argv) -> int:
    return cli.main(list(argv))


def refused_before_the_kernel(monkeypatch, capsys, tmp_path, *argv) -> str:
    """Run a command that must exit 2 before the slot kernel loads and
    before it writes anything; returns its one line of stderr."""
    calls = []
    monkeypatch.setattr(simulator, "_slot_kernel", lambda *args: calls.append(args))
    out = tmp_path / "x"
    rc = run_cli(*argv, "--out", str(out))
    err = capsys.readouterr().err
    assert rc == 2 and calls == [] and not out.exists()
    assert err.startswith("schedlab: ") and err.count("\n") == 1, err
    return err


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

    def test_empty_threshold_list_exits_2_without_outputs(self, ref_cfg_path, tmp_path, capsys):
        out = tmp_path / "sim"
        rc = run_cli(
            "simulate", "--config", str(ref_cfg_path), "--policy", HET_POLICY,
            "--horizon", "1000", "--thresholds", ",", "--out", str(out),
        )
        assert rc == 2
        assert "thresholds may not be empty" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_2_without_outputs(self, tmp_path):
        out = tmp_path / "nope"
        rc = run_cli(
            "simulate", "--config", str(tmp_path / "absent.json"),
            "--policy", HET_POLICY, "--out", str(out),
        )
        assert rc == 2
        assert not out.exists()

    def test_nan_config_entry_exits_2_without_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "nan_cfg.json"
        cfg.write_text(
            '{"n_users": 2, "n_states": 2, "state_probs": [NaN, 1.0],'
            ' "rate_matrix": [[1, 1], [2, 1]], "arrival_rates": [0.2, 0.2]}'
        )
        out = tmp_path / "nan"
        rc = run_cli(
            "simulate", "--config", str(cfg), "--policy", HET_POLICY,
            "--horizon", "3600", "--replications", "1", "--out", str(out),
        )
        assert rc == 2
        assert "state_probs entries must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: {**doc, "arrival_modle": "fluid"}, "unknown config keys ['arrival_modle']"),
        (lambda doc: {k: v for k, v in doc.items() if k != "n_states"}, "config needs 'n_states'"),
        (lambda doc: list(doc.values()), "expected a JSON object, got list"),
        (lambda doc: {**doc, "n_users": 4.7}, "n_users must be an integer, got 4.7"),
    ], ids=["unknown_key", "missing_key", "not_an_object", "float_count"])
    def test_bad_config_document_exits_2_without_outputs(self, ref_cfg_path, tmp_path, capsys, edit, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(edit(json.loads(ref_cfg_path.read_text()))))
        out = tmp_path / "x"
        rc = run_cli("simulate", "--config", str(cfg), "--policy", HET_POLICY,
                     "--horizon", "1000", "--replications", "1", "--out", str(out))
        err = capsys.readouterr().err
        assert rc == 2
        assert not out.exists()
        assert err.startswith("schedlab: ") and err.count("\n") == 1, err
        assert message in err

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

    def test_unknown_policy_key_exits_2(self, ref_cfg_path, tmp_path, capsys):
        out = tmp_path / "x"
        rc = run_cli(
            "simulate", "--config", str(ref_cfg_path),
            "--policy", '{"type": "het", "q_th": 2, "rho_1": 0.5}', "--out", str(out),
        )
        err = capsys.readouterr().err
        assert rc == 2
        assert not out.exists()
        assert err.startswith("schedlab: ") and err.count("\n") == 1, err
        assert "rho_1" in err and "rho1" in err

    @pytest.mark.parametrize("policy, message", [
        ('{"type": "het"}', "het policy needs 'q_th'"),
        ('{"q_th": 2}', "policy document needs 'type'"),
        ('{"type": "het", "q_th": true}', "het policy parameter 'q_th' must be a number, got True"),
    ])
    def test_incomplete_policy_exits_2(self, ref_cfg_path, tmp_path, capsys, policy, message):
        out = tmp_path / "x"
        rc = run_cli("simulate", "--config", str(ref_cfg_path), "--policy", policy, "--out", str(out))
        err = capsys.readouterr().err
        assert rc == 2
        assert not out.exists()
        assert err.startswith("schedlab: ") and err.count("\n") == 1, err
        assert message in err

    def test_horizon_beyond_the_kernels_counter_exits_2(self, ref_cfg_path, tmp_path, capsys, monkeypatch):
        """2**64 + 1000 used to wrap to 1000 slots in the kernel call and end
        in a ZeroDivisionError traceback."""
        err = refused_before_the_kernel(monkeypatch, capsys, tmp_path, "simulate", "--config", str(ref_cfg_path),
                                        "--policy", HET_POLICY, "--horizon", "18446744073709552616")
        assert err == "schedlab: horizon must be <= 1e+18 slots, got 18446744073709552616\n"

    def test_replications_beyond_an_index_exits_2(self, ref_cfg_path, tmp_path, capsys, monkeypatch):
        """10**20 used to end in an OverflowError traceback in
        run_simulation's range over the replications."""
        err = refused_before_the_kernel(monkeypatch, capsys, tmp_path, "simulate", "--config", str(ref_cfg_path),
                                        "--policy", HET_POLICY, "--horizon", "1000",
                                        "--replications", "100000000000000000000")
        assert err == f"schedlab: replications must be <= {sys.maxsize}, got 100000000000000000000\n"

    def test_integer_parameter_beyond_the_float_range_exits_2(self, ref_cfg_path, tmp_path, capsys, monkeypatch):
        """JSON keeps 1 followed by 400 zeros as an int, whose float() used to
        end in an OverflowError traceback."""
        policy = '{"type": "het", "q_th": 1' + "0" * 400 + "}"
        err = refused_before_the_kernel(monkeypatch, capsys, tmp_path, "simulate", "--config", str(ref_cfg_path),
                                        "--policy", policy, "--horizon", "1000")
        assert err == "schedlab: het policy parameter 'q_th' is too large for a float\n"

    @pytest.mark.parametrize("policy, message", [
        ('{"type": "het", "q_th": 1e999}', "q_th must be finite, got inf"),
        ('{"type": "mw", "alpha": 1e999}', "alpha must be finite, got inf"),
    ], ids=["het_q_th", "mw_alpha"])
    def test_infinite_rule_parameter_exits_2(self, ref_cfg_path, tmp_path, capsys, monkeypatch, policy, message):
        """1e999 parses to inf, which used to run and be echoed into
        result.json as Infinity, which strict JSON parsers reject."""
        err = refused_before_the_kernel(monkeypatch, capsys, tmp_path, "simulate", "--config", str(ref_cfg_path),
                                        "--policy", policy, "--horizon", "1000")
        assert err == f"schedlab: {message}\n"

    def test_poisson_rate_beyond_numpys_bound_exits_2(self, ref_cfg_path, tmp_path, capsys):
        doc = json.loads(ref_cfg_path.read_text())
        doc["arrival_rates"][1] = 1e19
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "x"
        rc = run_cli("simulate", "--config", str(cfg), "--policy", HET_POLICY,
                     "--horizon", "1000", "--replications", "1", "--out", str(out))
        err = capsys.readouterr().err
        assert rc == 2
        assert not out.exists()
        assert err.startswith("schedlab: user 1's Poisson arrival rate 1e+19") and err.count("\n") == 1, err


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

    def test_svg_flag_rejected(self, ref_cfg_path, tmp_path, capsys):
        """sweep always writes fig1-like.svg and takes no --svg."""
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as exc:
            run_cli("sweep", "--config", str(ref_cfg_path), "--policy", HET_POLICY,
                    "--values", "1,2", "--svg", "--out", str(out))
        assert exc.value.code == 2
        assert "--svg" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_2_before_any_work(self, ref_cfg_path, tmp_path, capsys, monkeypatch):
        """A negative seed used to pass the spec, run compute_iopt and then
        fail in numpy's SeedSequence with a message naming neither the
        option nor the field."""
        calls = []
        monkeypatch.setattr(cli, "compute_iopt", lambda *args: calls.append(args))
        out = tmp_path / "sweep"
        rc = run_cli("sweep", "--config", str(ref_cfg_path), "--policy", HET_POLICY,
                     "--values", "1,2", "--horizon", "1000", "--seed", "-1", "--out", str(out))
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == ["schedlab: master_seed must be >= 0, got -1"]
        assert calls == []
        assert not out.exists()

    def test_infinite_value_exits_2(self, ref_cfg_path, tmp_path, capsys, monkeypatch):
        err = refused_before_the_kernel(monkeypatch, capsys, tmp_path, "sweep", "--config", str(ref_cfg_path),
                                        "--policy", '{"type": "mw", "alpha": 1}', "--values", "1,inf",
                                        "--horizon", "1000")
        assert err == "schedlab: alpha must be finite, got inf\n"

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

    @staticmethod
    def write_config(path, rates, probs, lam, arrival_model="poisson"):
        path.write_text(json.dumps({
            "n_users": len(lam), "n_states": len(probs), "state_probs": probs,
            "rate_matrix": rates, "arrival_rates": lam, "arrival_model": arrival_model,
        }))
        return str(path)

    def test_generic_5x4_is_exact(self, tmp_path):
        # 280 vertices of the dual polytope, under the cap
        rates = np.random.default_rng(0).uniform(1.0, 9.0, size=(4, 5)).tolist()
        cfg_path = self.write_config(tmp_path / "generic5x4.json", rates, [0.25] * 4, [0.1] * 5)
        out = tmp_path / "iopt"
        assert run_cli("iopt", "--config", cfg_path, "--out", str(out)) == 0
        assert json.loads((out / "iopt.json").read_text())["value"] > 0
        assert len(read_csv(out / "phi_opt.csv")[1]) == 20

    def test_over_vertex_cap_exits_3(self, tmp_path, capsys):
        # 10 users x 4 states with generic rates: 43 520 vertices of the dual
        # polytope, 110 080 with its bound's, in 13 dimensions
        rates = np.random.default_rng(0).uniform(1.0, 9.0, size=(4, 10)).tolist()
        cfg_path = self.write_config(tmp_path / "generic10x4.json", rates, [0.25] * 4, [0.1] * 10)
        out = tmp_path / "x"
        start = time.monotonic()
        rc = run_cli("iopt", "--config", cfg_path, "--out", str(out))
        assert time.monotonic() - start < 1.0
        assert rc == 3
        assert "43520 vertices" in capsys.readouterr().err
        assert not out.exists()

    def test_qhull_failure_exits_3(self, ref_cfg_path, tmp_path, capsys, monkeypatch):
        import scipy.spatial

        def failing(*args, **kwargs):
            raise scipy.spatial.QhullError("QH6271 qhull topology error (qh_check_dupridge)\nmore detail")

        monkeypatch.setattr(scipy.spatial, "HalfspaceIntersection", failing)
        out = tmp_path / "x"
        assert run_cli("iopt", "--config", str(ref_cfg_path), "--out", str(out)) == 3
        assert capsys.readouterr().err == (
            "schedlab: computation error: Qhull failed on the dual polytope: QH6271 qhull topology error (qh_check_dupridge)\n")
        assert not out.exists()

    def test_fluid_without_growing_deviation_exits_3(self, tmp_path, capsys):
        # fluid arrivals at 1 never exceed the single user's smallest rate 2
        cfg_path = self.write_config(tmp_path / "fluid.json", [[2.0], [3.0]], [0.5, 0.5], [1.0], "fluid")
        out = tmp_path / "x"
        assert run_cli("iopt", "--config", cfg_path, "--out", str(out)) == 3
        assert "no channel deviation" in capsys.readouterr().err
        assert not out.exists()


    def test_poisson_rate_beyond_numpys_bound_exits_2(self, tmp_path, capsys):
        """iopt never samples, but a Poisson config numpy cannot sample is
        refused when built, as every command refuses it."""
        cfg_path = self.write_config(tmp_path / "huge.json", [[2.0], [3.0]], [0.5, 0.5], [1e19])
        out = tmp_path / "x"
        assert run_cli("iopt", "--config", cfg_path, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("schedlab: user 0's Poisson arrival rate 1e+19") and err.count("\n") == 1, err
        assert not out.exists()

    def test_integer_rate_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        cfg_path = self.write_config(tmp_path / "huge.json", [[2.0], [3.0]], [0.5, 0.5], [10**400])
        out = tmp_path / "x"
        assert run_cli("iopt", "--config", cfg_path, "--out", str(out)) == 2
        assert capsys.readouterr().err == "schedlab: arrival_rates has an integer entry too large for a float\n"
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--out", "--config"])
    def test_path_under_a_file_exits_2(self, ref_cfg_path, tmp_path, capsys, option):
        """A path through a regular file is bad input: exit 2 with one line,
        not a NotADirectoryError traceback."""
        plain = tmp_path / "plain"
        plain.write_text("")
        paths = {"--config": str(ref_cfg_path), "--out": str(tmp_path / "out"), option: str(plain / "sub")}
        rc = run_cli("iopt", *[arg for pair in paths.items() for arg in pair])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("schedlab: ") and err.count("\n") == 1 and "Not a directory" in err, err


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

    def test_svg_rects_reproduce_each_cell(self, ref_cfg_path, tmp_path):
        """The merged rects of regions.svg cover each grid cell's centre
        exactly once, in the colour of that cell's label in regions.csv."""
        out = tmp_path / "reg"
        rc = run_cli(
            "regions", "--config", str(ref_cfg_path), "--policy", HET_POLICY,
            "--axes", "0,2", "--grid-max", "20", "--grid-step", "1", "--out", str(out),
        )
        assert rc == 0
        _, rows = read_csv(out / "regions.csv")
        expected = np.array([svg.REGION_COLORS[label] for _, _, label in rows])
        n = math.isqrt(len(rows))
        found = re.findall(r'<rect x="([\d.]+)" y="([\d.]+)" width="([\d.]+)" height="([\d.]+)" '
                           r'fill="(#\w+)"/>', (out / "regions.svg").read_text())
        x, y, w, h = np.array([rect[:4] for rect in found], dtype=float).T
        colors = np.array([rect[4] for rect in found])
        assert len(set(expected)) > 2 and len(found) < n * n
        cell_w = (svg.WIDTH - svg.MARGIN_L - svg.MARGIN_R) / n
        cell_h = (svg.HEIGHT - svg.MARGIN_T - svg.MARGIN_B) / n
        ia, ib = np.divmod(np.arange(n * n), n)  # the CSV's (q_a, q_b) order
        cx = (svg.MARGIN_L + (ia + 0.5) * cell_w)[:, None]
        cy = (svg.HEIGHT - svg.MARGIN_B - (ib + 0.5) * cell_h)[:, None]
        cover = (x <= cx) & (cx < x + w) & (y <= cy) & (cy < y + h)
        assert (cover.sum(axis=1) == 1).all()
        assert (colors[cover.argmax(axis=1)] == expected).all()

    def test_long_inline_policy(self, ref_cfg_path, tmp_path):
        """An inline policy longer than a file name may be is parsed, not looked up."""
        pretty = json.dumps({"type": "het", "q_th": 2, "rho1": 0.0, "rho2": 0.0,
                             "tie_break": "lowest_index"}, indent=40)
        assert len(pretty.encode()) > 255
        texts = []
        for name, policy in (("pretty", pretty), ("compact", HET_POLICY)):
            rc = run_cli(
                "regions", "--config", str(ref_cfg_path), "--policy", policy,
                "--axes", "0,2", "--grid-max", "10", "--out", str(tmp_path / name),
            )
            assert rc == 0
            texts.append((tmp_path / name / "regions.csv").read_bytes())
        assert texts[0] == texts[1]

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

    @pytest.mark.parametrize("grid_max", ["nan", "inf"])
    def test_non_finite_grid_max_exit_2(self, ref_cfg_path, tmp_path, capsys, grid_max):
        out = tmp_path / "x"
        rc = run_cli(
            "regions", "--config", str(ref_cfg_path), "--policy", HET_POLICY,
            "--axes", "0,2", "--grid-max", grid_max, "--out", str(out),
        )
        assert rc == 2
        assert "grid_max must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_over_score_cap_exit_3(self, ref_cfg_path, tmp_path, capsys):
        out = tmp_path / "x"
        rc = run_cli(
            "regions", "--config", str(ref_cfg_path), "--policy", HET_POLICY,
            "--axes", "0,2", "--grid-max", "1e6", "--grid-step", "1", "--out", str(out),
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert str(1_000_001**2 * 4) in err  # G^2 N scores
        assert str(2**24) in err
        assert not out.exists()

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

    def test_svg_without_a_positive_probability(self, ref_cfg_path, tmp_path):
        """No queue reaches the thresholds: every overflow probability is 0,
        so the log-scale chart has axes and a legend but no series."""
        out = tmp_path / "c"
        rc = run_cli(
            "compare", "--config", str(ref_cfg_path), "--horizon", "2000",
            "--replications", "1", "--thresholds", "1000,2000", "--svg", "--out", str(out),
        )
        assert rc == 0
        chart = (out / "compare.svg").read_text()
        assert chart.startswith("<svg") and "<polyline" not in chart
        assert all(name in chart for name in ("het", "exp", "mw"))

    @pytest.mark.parametrize("option, message", [("--q-th", "q_th"), ("--alpha", "alpha")])
    def test_infinite_parameter_exits_2(self, ref_cfg_path, tmp_path, capsys, monkeypatch, option, message):
        err = refused_before_the_kernel(monkeypatch, capsys, tmp_path, "compare", "--config", str(ref_cfg_path),
                                        option, "inf", "--horizon", "1000")
        assert err == f"schedlab: {message} must be finite, got inf\n"

    def test_eta_domain_violation_exit_2(self, ref_cfg_path, tmp_path):
        rc = run_cli(
            "compare", "--config", str(ref_cfg_path), "--eta", "0",
            "--horizon", "1000", "--out", str(tmp_path / "x"),
        )
        assert rc == 2


class TestParserReuse:
    """main parses every call with the one parser of the process: no call's
    options, defaults or usage errors reach the next call."""

    SMALL = ("--horizon", "2000", "--replications", "1")

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_svg_flag_does_not_carry_over(self, ref_cfg_path, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        common = ("simulate", "--config", str(ref_cfg_path), "--policy", HET_POLICY, *self.SMALL)
        assert run_cli(*common, "--svg", "--out", str(first)) == 0
        assert run_cli(*common, "--out", str(second)) == 0
        assert (first / "overflow.svg").exists()
        assert (second / "overflow.csv").exists() and not (second / "overflow.svg").exists()

    def test_compare_option_does_not_carry_over(self, ref_cfg_path, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        common = ("compare", "--config", str(ref_cfg_path), *self.SMALL)
        assert run_cli(*common, "--q-th", "5", "--out", str(first)) == 0
        assert run_cli(*common, "--out", str(second)) == 0
        q_th = [json.loads((out / "compare.json").read_text())["runs"][0]["policy"]["q_th"]
                for out in (first, second)]
        assert q_th == [5, 2]

    def test_usage_error_between_calls_changes_nothing(self, ref_cfg_path, tmp_path, capsys):
        common = ("compare", "--config", str(ref_cfg_path), *self.SMALL)
        outs = tmp_path / "before", tmp_path / "after"
        assert run_cli(*common, "--out", str(outs[0])) == 0
        for bad in (("--q-th",), ("--q-th", "five"), ("--no-such-option",), ("--rho1", "0.5")):
            with pytest.raises(SystemExit) as exc:
                run_cli(*common, *bad, "--out", str(tmp_path / "bad"))
            assert exc.value.code == 2
        assert "usage: schedlab compare" in capsys.readouterr().err
        assert run_cli(*common, "--out", str(outs[1])) == 0
        assert not (tmp_path / "bad").exists()
        assert (outs[0] / "compare.csv").read_bytes() == (outs[1] / "compare.csv").read_bytes()
        docs = [json.loads((out / "compare.json").read_text()) for out in outs]
        assert [doc["spec_echo"].pop("out") for doc in docs] == [str(out) for out in outs]
        assert docs[0] == docs[1]
