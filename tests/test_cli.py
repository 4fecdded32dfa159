"""CLI surface: subcommands, exit codes, stdin handling."""

import io
import json
import random

import pytest

from spectralcert.cli import RunConfig, _bipartition, main
from spectralcert.errors import GraphInputError
from spectralcert.families import matching_extremal
from spectralcert.graphs import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    from_graph6,
    path_graph,
    to_graph6,
)
from spectralcert.smallgraphs import connected_graphs


def _g6(g):
    return to_graph6(g).decode()


def test_run_config_validation():
    RunConfig()
    with pytest.raises(GraphInputError):
        RunConfig(tolerance=1e-6, margin=1e-8)
    with pytest.raises(GraphInputError):
        RunConfig(workers=0)
    with pytest.raises(GraphInputError):
        RunConfig(caps={"win_n_cap": 0, "brute_matching_cap": 8})


def test_run_config_rejects_non_finite():
    for tolerance, margin in [(float("nan"), 1e-8), (1e-10, float("nan")),
                              (float("inf"), float("inf")), (1e-10, float("inf"))]:
        with pytest.raises(GraphInputError):
            RunConfig(tolerance=tolerance, margin=margin)


def test_spectral_subcommand(capsys):
    assert main(["spectral", _g6(complete_graph(4))]) == 0
    out = capsys.readouterr().out
    assert "rho_a=3" in out
    assert "hong=3" in out
    assert "das=6" in out


def test_spectral_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(f"{_g6(path_graph(3))}\n\n{_g6(complete_graph(2))}\n"))
    assert main(["spectral", "-", "--a", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2


def _per_graph_spectral(lines, a, tol):
    """Radius and residual fields from one solve per graph, up to the first
    failure, and that failure's error line."""
    from spectralcert.errors import ConvergenceError
    from spectralcert.spectral import a_matrix, spectral_radius

    fields = []
    for line in lines:
        try:
            result = spectral_radius(a_matrix(from_graph6(line), a), tol)
        except ConvergenceError as exc:
            return fields, f"error: {exc}"
        fields.append(f" rho_a={result.radius:.12g} residual={result.residual:.3e} ")
    return fields, ""


def test_spectral_stream_solves_one_stack_per_order(capsys, monkeypatch):
    import spectralcert.spectral

    lines = [_g6(g) for n in range(1, 7) for g in connected_graphs(n)]
    lines.append(_g6(disjoint_union([path_graph(3), complete_graph(4)])))
    random.Random(2).shuffle(lines)
    calls = []
    solve = spectralcert.spectral.spectral_radius
    monkeypatch.setattr("spectralcert.spectral.spectral_radius",
                        lambda m, tol: calls.append(m.shape) or solve(m, tol))
    # 3e-16 fails some graphs partway through the stream, 1e-300 the first
    for a, tol in [(0.0, 1e-10), (1.0, 1e-10), (0.0, 3e-16), (0.0, 1e-300)]:
        calls.clear()
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        code = main(["spectral", "-", "--a", f"{a:g}", "--tol", f"{tol:g}"])
        out, err = capsys.readouterr()
        stacks = sorted(shape[0] for shape in calls)
        fields, error = _per_graph_spectral(lines, a, tol)
        assert (code, err.strip()) == ((3, error) if error else (0, ""))
        printed = out.splitlines()
        assert len(printed) == len(fields)
        for line, g6, expected in zip(printed, lines, fields):
            assert line.startswith(f"graph6={g6} ") and expected in line
        if not error:
            assert stacks == [1, 1, 1, 2, 6, 21, 112]  # orders 1, 2, 7 (P3 + K4), 3, ...


def test_closed_form_subcommand(capsys):
    assert main(["closed-form", "rho", "--n", "3", "--delta", "1"]) == 0
    out = capsys.readouterr().out
    assert "value=2.0" in out
    diff = float(out.split("difference=")[1].strip())
    assert diff <= 1e-8


def test_gen_family_roundtrip(capsys):
    assert main(["gen-family", "matching", "--n", "3", "--s", "1"]) == 0
    line = capsys.readouterr().out.strip()
    assert line == _g6(matching_extremal(3, 1).to_graph())
    assert main(["gen-family", "ktree", "--n", "8", "--k", "3"]) == 0
    assert main(["gen-family", "win", "--s", "2", "--parts", "3,1,1"]) == 0


def test_gen_family_to_file(tmp_path, capsys):
    out = tmp_path / "fam.g6"
    assert main(["gen-family", "ktree", "--n", "8", "--k", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text().strip()


def test_certify_matching_hall_violator(capsys):
    g6 = _g6(matching_extremal(3, 1).to_graph())
    assert main(["certify", "matching", g6]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["type"] == "hall_violator"
    assert len(payload["data"]) == 2


def test_certify_ktree(capsys):
    assert main(["certify", "ktree", "--k", "2", _g6(path_graph(5))]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload["type"] == "ktree"
    assert len(payload["data"]) == 4


def test_certify_ktree_absent_prints_null(capsys):
    from spectralcert.families import ktree_extremal

    assert main(["certify", "ktree", "--k", "3", _g6(ktree_extremal(8, 3))]) == 0
    assert capsys.readouterr().out.strip() == "null"


def test_certify_win(capsys):
    from spectralcert.families import ktree_extremal

    assert main(["certify", "win", "--k", "3", _g6(ktree_extremal(8, 3))]) == 0
    payload = json.loads(capsys.readouterr().out.strip())
    assert payload == {"type": "win_violator", "data": [0]}


def test_quotient_subcommand(capsys):
    assert main(["quotient", "--n", "3", "--s", "1", "--a", "0"]) == 0
    out = capsys.readouterr().out
    assert "lambda1=2.0" in out


def test_verify_bounds_exit_zero(capsys):
    assert main(["verify", "bounds", "--min-n", "1", "--max-n", "5"]) == 0
    assert "violated=0" in capsys.readouterr().out


def test_verify_report_and_csv(tmp_path, capsys):
    report = tmp_path / "r.json"
    rows = tmp_path / "r.csv"
    code = main(["verify", "hamilton-rho", "--min-n", "4", "--max-n", "5",
                 "--report", str(report), "--csv", str(rows)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["counts"]["violated"] == 0
    assert rows.read_text().splitlines()[0].startswith("graph6,")


def test_verify_matching_small(capsys):
    assert main(["verify", "matching", "--nx", "3", "--delta", "1", "--a", "0"]) == 0
    assert "violated=0" in capsys.readouterr().out


def test_verify_stream_from_file(tmp_path, capsys):
    stream = tmp_path / "in.g6"
    stream.write_text(f"{_g6(complete_graph(5))}\n{_g6(cycle_graph(5))}\n")
    assert main(["verify", "bounds", "--stream", str(stream)]) == 0
    assert "checked=2" in capsys.readouterr().out


def test_verify_edge_deletion_below_guard(tmp_path, capsys):
    report = tmp_path / "r.json"
    assert main(["verify", "edge-deletion", "--nx", "9", "--delta", "2",
                 "--report", str(report)]) == 0
    capsys.readouterr()
    payload = json.loads(report.read_text())
    assert payload["config"]["below_guard"] is True
    assert payload["counts"]["violated"] == 0


def test_verify_edge_deletion_bad_delta_one_line(capsys):
    assert main(["verify", "edge-deletion", "--nx", "6", "--delta", "0"]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["verify", "nonsense"]) == 1
    assert main(["spectral", "not-a-graph6-\x01"]) == 1
    assert main(["closed-form", "rho", "--n", "3", "--delta", "9"]) == 1
    capsys.readouterr()


def test_violation_exit_code_mapping():
    # honest harnesses cannot violate, so check the mapping at the report level
    from spectralcert.verify import VerificationReport

    report = VerificationReport(
        theorem_id="t", population="p",
        counts={"checked": 1, "vacuous": 0, "confirmed": 0,
                "extremal_equality": 0, "violated": 1},
        violations=[{"graph6": "A_"}], tolerances={}, seed=None, config={})
    assert not report.ok


def test_bipartition_recovers_parts():
    b = matching_extremal(4, 1)
    rebuilt = _bipartition(b.to_graph())
    assert rebuilt.nx == rebuilt.ny == 4
    assert rebuilt.m == b.m


def test_bipartition_balances_components():
    # K_{1,2} plus K_{2,1}: balanced only with opposite orientations
    g = disjoint_union([complete_graph(1), complete_graph(1)])  # placeholder
    from spectralcert.graphs import build_graph

    g = build_graph(6, [(0, 1), (0, 2), (3, 4), (3, 5)])
    b = _bipartition(g)
    assert b.nx == b.ny == 3


def test_bipartition_rejects_odd_cycles_and_imbalance():
    with pytest.raises(GraphInputError):
        _bipartition(cycle_graph(5))
    with pytest.raises(GraphInputError):
        _bipartition(path_graph(3))  # 2-1 split cannot balance


def test_verify_edge_deletion_inside_huge_margin_exits_zero(tmp_path, capsys):
    report = tmp_path / "r.json"
    assert main(["verify", "edge-deletion", "--nx", "6", "--margin", "1e300",
                 "--report", str(report)]) == 0
    assert "violated=0" in capsys.readouterr().out
    counts = json.loads(report.read_text())["counts"]
    assert counts["vacuous"] == 4 + 20 + 20  # every single and deep deletion row


def test_verify_matching_wide_samples(capsys):
    code = main(["verify", "matching", "--nx", "8", "--count", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "checked=5" in out


def test_verify_ktree_bad_edge_probability_one_line(capsys):
    for p in ("0", "nan", "1.5"):
        assert main(["verify", "ktree", "--count", "1", "--p", p]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")


def test_verify_ktree_tiny_edge_probability_hits_draw_budget(capsys):
    import time

    start = time.perf_counter()
    assert main(["verify", "ktree", "--count", "1", "--n", "22", "--p", "1e-9"]) == 1
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert elapsed < 5.0


def test_verify_negative_count_one_line(capsys):
    for argv in (["verify", "matching", "--nx", "5", "--count", "-5"],
                 ["verify", "ktree", "--count", "-3"]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")


def test_verify_matching_count_zero_is_exhaustive(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "matching", "--nx", "2", "--delta", "1", "--count", "0",
                 "--report", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["config"]["population"] == "exhaustive 2+2 biadjacency patterns"
    assert report["counts"]["checked"] == 16


def test_spectral_unreachable_tolerance_exits_numeric(capsys):
    assert main(["spectral", _g6(path_graph(5)), "--tol", "1e-300"]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_spectral_and_closed_form_take_a_tolerance_above_the_default_margin(capsys):
    # neither compares with a threshold, so no margin bounds the tolerance
    assert main(["spectral", _g6(complete_graph(4)), "--tol", "1e-6"]) == 0
    assert main(["closed-form", "rho", "--n", "5", "--delta", "1", "--tol", "1e-6"]) == 0
    assert capsys.readouterr().err == ""


def test_python_dash_m_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import spectralcert

    src = str(Path(spectralcert.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-m", "spectralcert.cli", "verify", "matching", "--nx", "2",
         "--delta", "1"], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0
    assert "matching_family_threshold_adjacency: checked=16" in out.stdout


def _one_error_line(err):
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_verify_stream_parse_error_same_at_any_worker_count(tmp_path, capsys):
    stream = tmp_path / "bad.g6"
    stream.write_text(f"{_g6(complete_graph(5))}\nCxx\n{_g6(cycle_graph(5))}\n")
    errors = []
    for workers in ("1", "2"):
        assert main(["verify", "hamilton-rho", "--stream", str(stream),
                     "--workers", workers]) == 1
        err = capsys.readouterr().err
        _one_error_line(err)
        errors.append(err)
    assert errors[0] == errors[1]


def test_non_ascii_graph6_argument_one_line(capsys):
    assert main(["spectral", "Cé"]) == 1
    err = capsys.readouterr().err
    _one_error_line(err)
    assert "non-ASCII character (byte offset 1)" in err


def test_non_ascii_graph6_on_stdin_one_line():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import spectralcert

    src = str(Path(spectralcert.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # strict decoding stands for a locale whose stdin is not surrogateescape
    for encoding in (None, "utf-8:strict"):
        if encoding:
            env["PYTHONIOENCODING"] = encoding
        out = subprocess.run(
            [sys.executable, "-m", "spectralcert.cli", "spectral", "-"],
            input=b"C~\n\xff\n", env=env, capture_output=True, timeout=120)
        assert out.returncode == 1
        _one_error_line(out.stderr.decode())


def test_non_utf8_stream_file_one_line(tmp_path, capsys):
    stream = tmp_path / "latin1.g6"
    stream.write_bytes(b"C~\nC\xe9\n")
    for workers in ("1", "2"):
        assert main(["verify", "hamilton-rho", "--stream", str(stream),
                     "--workers", workers]) == 1
        err = capsys.readouterr().err
        _one_error_line(err)
        assert "non-ASCII character (byte offset 1)" in err


def test_gen_family_win_bad_parts_one_line(capsys):
    for parts in ("a", "2,,1"):
        assert main(["gen-family", "win", "--s", "1", "--parts", parts]) == 1
        _one_error_line(capsys.readouterr().err)


def test_verify_matching_sqrt_negative_part_size_one_line(capsys):
    assert main(["verify", "matching-sqrt", "--nx", "-2", "--count", "3"]) == 1
    _one_error_line(capsys.readouterr().err)


def test_verify_rejected_arguments_print_no_seed(capsys):
    for argv in (["verify", "matching-sqrt", "--nx", "-2", "--count", "3"],
                 ["verify", "edge-deletion", "--nx", "6", "--delta", "0"],
                 ["verify", "ktree", "--k", "2"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        _one_error_line(captured.err)


def test_certify_and_gen_family_do_not_load_numpy():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import spectralcert

    src = str(Path(spectralcert.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    runs = [
        (["certify", "win", "--k", "2", _g6(path_graph(5))], 0),
        (["certify", "ktree", "--k", "2", _g6(cycle_graph(5))], 0),
        (["certify", "matching", _g6(cycle_graph(4))], 0),
        (["gen-family", "ktree", "--n", "8", "--k", "3"], 0),
        (["gen-family", "win", "--s", "2", "--parts", "3,1,1"], 0),
        (["gen-family", "matching", "--n", "3", "--s", "1"], 0),
        (["certify", "ktree", "--k", "two", "C~"], 1),
    ]
    # one fresh interpreter: is numpy loaded after the import, after each
    # run, and (the control) after importing the eigensolver module?
    probe = (
        "import sys\n"
        "import spectralcert\n"
        "loaded = ['numpy' in sys.modules]\n"
        "from spectralcert.cli import main\n"
        f"for argv, code in {runs!r}:\n"
        "    assert main(argv) == code, argv\n"
        "    loaded.append('numpy' in sys.modules)\n"
        "import spectralcert.spectral\n"
        "loaded.append('numpy' in sys.modules)\n"
        "print(loaded)\n")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == str([False] * (1 + len(runs)) + [True])
