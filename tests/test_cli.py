"""CLI surface: subcommands, exit codes, stdin handling."""

import io
import json
import random

import pytest

from spectralcert.cli import _bipartition, main
from spectralcert.errors import GraphInputError
from spectralcert.families import matching_extremal
from spectralcert.graphs import (
    build_graph,
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


def _rejected_one_line(flags, capsys, command=("verify", "bounds", "--max-n", "4")):
    assert main([*command, *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    return err


def test_run_config_validation(capsys):
    assert main(["verify", "bounds", "--max-n", "4"]) == 0
    capsys.readouterr()
    _rejected_one_line(["--tol", "1e-6", "--margin", "1e-8"], capsys)  # tolerance above the margin
    _rejected_one_line(["--workers", "0"], capsys)


def test_workers_above_the_cpu_count_are_rejected(capsys, monkeypatch):
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    _rejected_one_line(["--workers", "3"], capsys)
    monkeypatch.setattr("os.cpu_count", lambda: None)  # unknown counts as one
    _rejected_one_line(["--workers", "2"], capsys)


def test_negative_seed_is_rejected_where_a_stream_is_sampled(capsys):
    for command in (["verify", "ktree", "--k", "3"],
                    ["verify", "ktree", "--k", "3", "--count", "4"],
                    ["verify", "matching", "--nx", "5"],
                    ["verify", "matching-sqrt", "--nx", "3", "--count", "5"]):
        err = _rejected_one_line(["--seed", "-1"], capsys, command)
        assert err == "error: seed must be nonnegative, got -1\n"
    # an exhaustive stream ignores the seed
    assert main(["verify", "matching", "--nx", "2", "--seed", "-1"]) == 0


def test_run_config_rejects_non_finite(capsys):
    for tolerance, margin in [("nan", "1e-8"), ("1e-10", "nan"),
                              ("inf", "inf"), ("1e-10", "inf")]:
        _rejected_one_line(["--tol", tolerance, "--margin", margin], capsys)


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


def test_quotient_rejects_a_non_finite_weight_before_printing(capsys):
    for a in ("nan", "inf"):
        assert main(["quotient", "--n", "3", "--s", "1", "--a", a]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"error: diagonal weight must be nonnegative and finite, got {a}"]


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


def _layered_bipartition(g):
    """Reference for `_bipartition`: 2-colouring by breadth-first layers (an
    edge inside a layer closes an odd cycle), then the same balancing and
    messages."""
    n = g.n
    masks = g.neighbor_masks
    comps = []
    unseen = (1 << n) - 1
    while unseen:
        layer = reached = unseen & -unseen
        sides, color = [layer, 0], 0
        while layer:
            ahead = 0
            for v in range(n):
                if layer >> v & 1:
                    ahead |= masks[v]
            if ahead & layer:
                raise GraphInputError("graph is not bipartite (odd cycle found)")
            layer = ahead & ~reached
            reached |= layer
            color ^= 1
            sides[color] |= layer
        unseen &= ~reached
        comps.append(sides)
    if n % 2:
        raise GraphInputError("odd order cannot form a balanced bipartite graph")
    target = n // 2
    reachable = [{0: None}]
    for idx, sides in enumerate(comps):
        nxt = {}
        for total in reachable[idx]:
            for pick, side in enumerate(sides):
                new = total + side.bit_count()
                if new <= target and new not in nxt:
                    nxt[new] = pick
        reachable.append(nxt)
    if target not in reachable[-1]:
        raise GraphInputError("no balanced bipartition exists for this graph")
    x_side, total = 0, target
    for idx in range(len(comps) - 1, -1, -1):
        side = comps[idx][reachable[idx + 1][total]]
        x_side |= side
        total -= side.bit_count()
    ys = [y for y in range(n) if not x_side >> y & 1]
    return len(ys), tuple(sum(1 << j for j, y in enumerate(ys) if masks[x] >> y & 1)
                          for x in range(n) if x_side >> x & 1)


def _parts_or_error(fn, g):
    try:
        b = fn(g)
    except GraphInputError as exc:
        return str(exc)
    return b if isinstance(b, tuple) else (b.ny, b.x_masks)


def test_bipartition_matches_layered_bfs_on_random_multicomponent_graphs():
    rng = random.Random(71)
    outcomes = set()
    for _ in range(3000):
        parts = []
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(1, 5)
            # a random bipartite component, sometimes given one edge that may close an odd cycle
            color = [rng.randint(0, 1) for _ in range(k)]
            edges = [(u, v) for u in range(k) for v in range(u + 1, k)
                     if color[u] != color[v] and rng.random() < 0.6]
            if k > 2 and rng.random() < 0.2:
                edges.append(tuple(rng.sample(range(k), 2)))
            parts.append(build_graph(k, edges))
        g = disjoint_union(parts)
        expected = _parts_or_error(_layered_bipartition, g)
        assert _parts_or_error(_bipartition, g) == expected
        outcomes.add(expected if isinstance(expected, str) else "parts")
    assert len(outcomes) == 4  # parts and each of the three messages


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


def _verify_reads():
    from spectralcert.cli import _VERIFY_OPTIONS, _VERIFY_TARGETS

    options = set(_VERIFY_OPTIONS) | {"--tol"}
    reads = {target: set(flags) | {"--tol", "--report", "--csv"}
             for target, flags in _VERIFY_TARGETS.items()}
    return options, reads


def test_verify_target_table():
    options, reads = _verify_reads()
    assert len(options) == 18 and len(reads) == 9
    assert set().union(*reads.values()) == options  # every option has a reader
    assert sum(map(len, reads.values())) == 72
    # every option a target reads parses, and lands under its own name
    from spectralcert.cli import _build_parser

    parser = _build_parser()
    for target, flags in reads.items():
        for flag in flags:
            args = parser.parse_args(["verify", target, flag, "7"])
            assert str(vars(args)[flag[2:].replace("-", "_")]) in ("7", "7.0")


def test_parser_without_verify_targets_reads_other_commands_the_same():
    # main leaves out the verify targets unless the command is verify
    from spectralcert.cli import _build_parser

    whole, lean = _build_parser(), _build_parser(targets=False)
    assert lean.format_help() == whole.format_help()
    for argv in (["certify", "ktree", "--k", "3", "C~"], ["certify", "matching", "-"],
                 ["spectral", "C~", "--a", "1"], ["gen-family", "win", "--s", "1", "--parts", "2,1"],
                 ["closed-form", "q", "--n", "9", "--delta", "2"],
                 ["quotient", "--n", "9", "--s", "1", "--a", "0.5"]):
        assert vars(lean.parse_args(argv)) == vars(whole.parse_args(argv))

def test_verify_targets_refuse_options_they_do_not_read(capsys):
    options, reads = _verify_reads()
    for target, flags in reads.items():
        for flag in sorted(options - flags):
            err = _rejected_one_line([flag, "7"], capsys, ("verify", target))
            assert err == f"error: unrecognized arguments: {flag} 7\n"
    # no abbreviation stands in for an option a target does not read
    for target in ("matching", "matching-sqrt", "edge-deletion"):
        _rejected_one_line(["--n", "7"], capsys, ("verify", target))


def test_usage_errors_are_one_line(capsys):
    for argv in ([], ["verify"], ["verify", "nonsense"], ["verify", "ktree", "--k"],
                 ["certify", "ktree", "--k", "two", "C~"], ["spectral"]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        _one_error_line(err)


def test_stream_refuses_the_options_that_generate_the_stream(tmp_path, capsys):
    stream = tmp_path / "in.g6"
    stream.write_text(f"{_g6(complete_graph(5))}\n")
    generated = {"ktree": ("--n", "--count", "--p", "--seed"),
                 "hamilton-rho": ("--min-n", "--max-n"),
                 "hamilton-q": ("--min-n", "--max-n"),
                 "bounds": ("--min-n", "--max-n")}
    for target, flags in generated.items():
        for flag in flags:
            err = _rejected_one_line(["--stream", str(stream), flag, "1"], capsys,
                                     ("verify", target))
            assert err == f"error: --stream cannot be combined with {flag}\n"
    _rejected_one_line(["--stream", str(stream), "--count", "5", "--p", "0.5", "--seed", "9"],
                       capsys, ("verify", "ktree"))
    # an empty --stream names no file; it used to stand for no stream at all
    for target in ("ktree", "hamilton-rho", "bounds"):
        err = _rejected_one_line(["--stream", ""], capsys, ("verify", target))
        assert "No such file or directory" in err
    # the stream alone still runs; it prints no seed
    assert main(["verify", "ktree", "--k", "3", "--stream", str(stream)]) == 0
    assert main(["verify", "hamilton-rho", "--stream", str(stream)]) == 0
    assert "seed=" not in capsys.readouterr().out


def test_verify_defaults_fill_in_where_read(tmp_path, capsys):
    report = tmp_path / "r.json"
    for target in ("cut-monotone", "matching-monotone"):
        assert main(["verify", target, "--report", str(report)]) == 0
        assert json.loads(report.read_text())["config"]["max_n"] == 8
    capsys.readouterr()
    rows = tmp_path / "r.csv"
    assert main(["verify", "ktree", "--k", "3", "--csv", str(rows)]) == 0
    assert capsys.readouterr().out.startswith("seed=0\n")
    header, *lines = [line.split(",") for line in rows.read_text().splitlines()]
    # count 0: the order-22 extremal graph alone
    assert [line[header.index("n")] for line in lines] == ["22"]


def test_tolerance_rule_on_a_target_that_reads_the_margin(capsys):
    command = ("verify", "hamilton-rho", "--max-n", "4")
    assert main(list(command)) == 0
    capsys.readouterr()
    tolerance = "error: tolerance must be positive and finite\n"
    margin = "error: margin must be finite and at least the tolerance\n"
    for tol, mgn, message in [("1e-6", "1e-8", margin), ("nan", "1e-8", tolerance),
                              ("1e-10", "nan", margin), ("inf", "inf", tolerance),
                              ("1e-10", "inf", margin)]:
        assert _rejected_one_line(["--tol", tol, "--margin", mgn], capsys, command) == message


def test_targets_without_a_margin_take_a_tolerance_above_the_default_margin(capsys):
    for target in ("bounds", "cut-monotone", "matching-monotone"):
        assert main(["verify", target, "--max-n", "4", "--tol", "1e-6"]) == 0
    assert capsys.readouterr().err == ""


def test_package_root_defines_no_graphs_name():
    import spectralcert
    from spectralcert import graphs

    public = {name for name in vars(graphs) if not name.startswith("_")}
    assert not public & set(vars(spectralcert))
    assert "__all__" not in vars(spectralcert)
    assert spectralcert.__version__ == "0.1.0"


def test_refused_stream_loads_no_numpy():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import spectralcert

    src = str(Path(spectralcert.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = ("import sys\n"
             "from spectralcert.cli import main\n"
             "assert main(['verify', 'ktree', '--stream', '-', '--seed', '1']) == 1\n"
             "assert 'numpy' not in sys.modules\n")
    out = subprocess.run([sys.executable, "-c", probe], env=env, input="",
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stderr == "error: --stream cannot be combined with --seed\n"


def test_verify_ktree_order_zero_is_refused(capsys):
    # 0 is an order below k + 2 like any other, not a request for the default
    err = _rejected_one_line(["--n", "0"], capsys, ("verify", "ktree", "--k", "3"))
    assert err == "error: order must be at least k+2=5, got 0\n"


def test_closed_form_q_subcommand(capsys):
    from spectralcert.families import q_matching_extremal

    assert main(["closed-form", "q", "--n", "4", "--delta", "1"]) == 0
    out = capsys.readouterr().out
    assert f"value={q_matching_extremal(4, 1)!r}\n" in out
    assert float(out.split("difference=")[1].strip()) <= 1e-8


def test_spectral_prints_na_for_an_undefined_bound(capsys):
    # two isolated vertices: 2m - n + 1 < 0; one vertex: Das's bound needs n >= 2
    assert main(["spectral", "A?"]) == 0
    assert main(["spectral", "@"]) == 0
    two, one = capsys.readouterr().out.splitlines()
    assert two.endswith(" hong=NA das=0") and one.endswith(" hong=0 das=NA")


@pytest.mark.parametrize("argv, status", [
    (["spectral", "A_", "--a", "1e200"], 3),                    # uncertified eigenpair
    (["spectral", "Bw", "--a", "1e308"], 1),                    # a*D overflows
    (["quotient", "--n", "3", "--s", "1", "--a", "1e200"], 1),  # the quartic overflows
])
def test_numeric_overflow_ends_in_one_error_line(argv, status):
    # in a child process: pytest would capture a numpy warning in-process
    import os
    import subprocess
    import sys
    from pathlib import Path

    import spectralcert

    src = str(Path(spectralcert.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "spectralcert.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == status
    assert out.stdout == ""
    _one_error_line(out.stderr)
