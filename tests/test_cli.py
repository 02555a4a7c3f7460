import argparse
import gc

import pytest

from mcbound import kernel
from mcbound.circuits import parse_circuit, parse_truth_table
from mcbound.cli import build_parser, main
from mcbound.errors import ParseError
from mcbound.topology import (TopologySet, generate, load_topology_set, parse_topology,
                              parse_topology_set)

from conftest import MAJ4_TEXT, long_tier


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_each_command_takes_only_the_flags_it_reads():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
             for name, p in sub.choices.items()}
    verbose = {"-v", "--verbose"}
    assert flags == {
        "generate": {"--k", "--out", "--workers"} | verbose,
        "table2": {"--max-k"} | verbose,
        "prove": {"--n", "--k", "--classes", "--topologies"} | verbose,
        "verify": {"--suite", "--max-k", "--cases", "--seed", "--workers"},
        "eval": set(),
    }


# --- generate ---------------------------------------------------------------

def test_generate_writes_file_and_prints_count(tmp_path, capsys):
    out = tmp_path / "t3.txt"
    code, stdout, _ = run(capsys, "generate", "--k", "3", "--out", str(out))
    assert code == 0
    assert stdout.strip() == "8"
    ts = load_topology_set(out)
    assert ts.k == 3 and ts.count == 8


def test_generate_k0_is_usage_error(tmp_path, capsys):
    code, _, stderr = run(capsys, "generate", "--k", "0", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "usage error" in stderr


def test_generate_k6_runs_with_no_flag(tmp_path, capsys, monkeypatch):
    # stubbed, so that the test neither walks k=6 nor writes its 67 MiB file
    calls = []
    monkeypatch.setattr("mcbound.cli.generate",
                        lambda k, **kw: calls.append((k, kw)) or TopologySet(k, ()))
    monkeypatch.setattr("mcbound.cli.save_topology_set",
                        lambda ts, path: calls.append((ts.k, path)))
    out = str(tmp_path / "x")
    assert run(capsys, "generate", "--k", "6", "--out", out) == (0, "0\n", "")
    assert calls == [(6, {"workers": 1, "progress": None}), (6, out)]


def test_generate_k7_is_refused_before_it_walks(tmp_path, capsys, monkeypatch):
    def no_walk(name=None):
        raise AssertionError("generate --k 7 reached the kernel")

    monkeypatch.setattr(kernel, "get_backend", no_walk)
    out = tmp_path / "x"
    code, _, stderr = run(capsys, "generate", "--k", "7", "--out", str(out))
    assert code == 1 and "capped at k <= 6" in stderr and not out.exists()


def test_generate_workers_do_not_change_output(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert run(capsys, "generate", "--k", "4", "--out", str(a))[0] == 0
    assert run(capsys, "generate", "--k", "4", "--out", str(b), "--workers", "3")[0] == 0
    assert a.read_text() == b.read_text()


def test_generate_reads_no_environment(tmp_path, capsys, monkeypatch):
    plain = tmp_path / "plain.txt"
    assert run(capsys, "generate", "--k", "3", "--out", str(plain))[0] == 0
    out = tmp_path / "t.txt"
    for value in ("0", "two", "2"):
        monkeypatch.setenv("MCBOUND_WORKERS", value)
        assert run(capsys, "generate", "--k", "3", "--out", str(out)) == (0, "8\n", "")
        assert out.read_text() == plain.read_text()
        assert generate(3) == generate(3, workers=1)


def test_generate_verbose_prints_walk_depths(tmp_path, capsys):
    code, _, stderr = run(capsys, "generate", "--k", "4", "--out", str(tmp_path / "t.txt"), "-v")
    assert code == 0
    assert stderr.splitlines() == [f"[walk k=4] subtree {i}/5" for i in range(1, 6)] + [
        "[walk k=4] depth 2: 15 complete, 5 partial, 0 pruned",
        "[walk k=4] depth 3: 59 complete, 3 partial, 0 pruned",
        "[walk k=4] depth 4: 95 complete, 0 partial, 0 pruned",
    ]


def test_workers_below_one_is_usage_error(tmp_path, capsys):
    out = tmp_path / "t.txt"
    code, _, stderr = run(capsys, "generate", "--k", "3", "--out", str(out), "--workers", "0")
    assert code == 2
    assert "usage error" in stderr
    assert not out.exists()


def test_integer_flags_reject_non_ascii_digits(tmp_path, capsys):
    # Arabic-Indic 3 and 1, which int() would read
    out = tmp_path / "t.txt"
    for flags in (("--k", "\u0663"), ("--k", "3", "--workers", "\u0661")):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--out", str(out), *flags])
        assert exc.value.code == 2
        assert "invalid" in capsys.readouterr().err
        assert not out.exists()


def test_integer_flags_echo_long_values_cut(tmp_path, capsys):
    out = tmp_path / "t.txt"
    for value, shown in (("abc", "'abc'"), ("9" * 20, "'" + "9" * 20 + "'"),
                         ("9" * 5000, "'" + "9" * 20 + "…' (5000 characters)"),
                         ("-" + "x" * 30, "'-" + "x" * 19 + "…' (31 characters)")):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--out", str(out), f"--k={value}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].endswith(f"argument --k: invalid integer: {shown}")
        assert len(err) < 1000


# --- table2 -----------------------------------------------------------------

def test_table2_small_matches(capsys):
    code, stdout, _ = run(capsys, "table2", "--max-k", "3")
    assert code == 0
    assert stdout.splitlines() == ["1 1", "2 2", "3 8"]


def test_table2_reports_mismatch(capsys):
    # the k=4 definitional count differs from the published anchor; the
    # command must say so and exit nonzero naming the offending k
    code, stdout, stderr = run(capsys, "table2", "--max-k", "4")
    assert code == 1
    assert "4 85" in stdout.splitlines()
    assert "k=4" in stderr


def test_table2_verbose_prints_walk_depths(capsys):
    code, stdout, stderr = run(capsys, "table2", "--max-k", "3", "-v")
    assert code == 0
    assert stdout.splitlines() == ["1 1", "2 2", "3 8"]
    assert stderr.splitlines() == [
        "[walk k=2] depth 2: 2 complete, 0 partial, 0 pruned",
        "[walk k=3] subtree 1/1",
        "[walk k=3] depth 2: 5 complete, 1 partial, 0 pruned",
        "[walk k=3] depth 3: 8 complete, 0 partial, 0 pruned",
    ]


def test_table2_guards(capsys):
    assert run(capsys, "table2", "--max-k", "7")[0] == 2
    code, stdout, _ = run(capsys, "table2", "--max-k", "6")
    assert code == 1 and stdout.endswith("6 506935\n")


def test_table2_max_k_below_one_is_usage_error(capsys):
    code, stdout, stderr = run(capsys, "table2", "--max-k", "0")
    assert code == 2 and stdout == ""
    assert stderr == "usage error: --max-k must be at least 1\n"


def test_table2_takes_no_allow_long(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table2", "--max-k", "3", "--allow-long"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --allow-long" in capsys.readouterr().err


# --- prove ------------------------------------------------------------------

def test_prove_published_class_count(capsys):
    code, stdout, _ = run(capsys, "prove", "--n", "7", "--k", "6",
                          "--classes", "555709")
    assert code == 0
    assert stdout.splitlines()[-1] == "verdict: M(7) >= 7: true"


def test_prove_verbose_prints_walk_depths(capsys):
    # the counting walk reports the same depths as generate's
    code, stdout, stderr = run(capsys, "prove", "--n", "7", "--k", "4", "-v")
    assert code == 0
    assert "topology_classes = 85" in stdout.splitlines()
    assert stderr.splitlines() == [f"[walk k=4] subtree {i}/5" for i in range(1, 6)] + [
        "[walk k=4] depth 2: 15 complete, 5 partial, 0 pruned",
        "[walk k=4] depth 3: 59 complete, 3 partial, 0 pruned",
        "[walk k=4] depth 4: 95 complete, 0 partial, 0 pruned",
    ]


def test_prove_insufficient_class_count(capsys):
    code, stdout, _ = run(capsys, "prove", "--n", "7", "--k", "6",
                          "--classes", str(1 << 30))
    assert code == 1
    assert stdout.splitlines()[-1] == "verdict: M(7) >= 7: false"


def test_prove_trivial_case(capsys):
    code, stdout, _ = run(capsys, "prove", "--n", "1", "--k", "0", "--classes", "1")
    assert code == 1
    assert "verdict: M(1) >= 1: false" in stdout


def test_prove_n_and_k_out_of_range_are_usage_errors(capsys):
    for argv, message in ((("--n", "0", "--k", "2"), "--n must be at least 1"),
                          (("--n", "3", "--k", "-1"), "--k must be non-negative")):
        code, stdout, stderr = run(capsys, "prove", *argv)
        assert code == 2 and stdout == ""
        assert stderr == f"usage error: {message}\n"


def test_prove_from_an_empty_topology_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("topologyset k=3 count=0\n")
    code, stdout, stderr = run(capsys, "prove", "--n", "3", "--k", "3", "--topologies", str(path))
    assert code == 2 and stdout == ""
    assert stderr == "usage error: class count must be at least 1\n"


def test_prove_from_topology_file(tmp_path, capsys):
    out = tmp_path / "t2.txt"
    run(capsys, "generate", "--k", "2", "--out", str(out))
    code, stdout, _ = run(capsys, "prove", "--n", "3", "--k", "2",
                          "--topologies", str(out))
    assert code == 1  # 2 classes cannot cover B_3 by counting alone
    assert "topology_classes = 2" in stdout


def test_prove_topology_file_k_mismatch(tmp_path, capsys):
    out = tmp_path / "t2.txt"
    run(capsys, "generate", "--k", "2", "--out", str(out))
    code, _, stderr = run(capsys, "prove", "--n", "3", "--k", "3",
                          "--topologies", str(out))
    assert code == 2
    assert "k=2" in stderr


def test_prove_topology_file_not_ascii(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"topologyset k=1 count=1\n\ntopology k=1\ngate 1: L={\xc2\xb2} R={}\n")
    code, _, stderr = run(capsys, "prove", "--n", "3", "--k", "1", "--topologies", str(path))
    assert code == 1
    assert stderr.startswith("error: line 4, col 12: byte 0xc2 is not ASCII")


def test_prove_rejects_reports_too_long_to_print(capsys):
    for n, k in (("14", "1"), ("7", "200"), ("7", "1000000")):
        code, stdout, stderr = run(capsys, "prove", "--n", n, "--k", k, "--classes", "1")
        assert code == 1 and stdout == ""
        assert stderr.startswith("error: ") and "4300 digits" in stderr
    code, stdout, _ = run(capsys, "prove", "--n", "13", "--k", "1", "--classes", "1")
    assert code == 0
    assert f"|B_n| = {1 << (1 << 13)}" in stdout.splitlines()


def test_prove_refuses_long_reports_before_walking_or_loading(tmp_path, capsys, monkeypatch):
    walked = []
    monkeypatch.setattr("mcbound.cli.count_classes", lambda *a, **kw: walked.append(a) or 1)
    message = "error: the report for n=14 k=5 has values of more than 4300 digits\n"
    assert run(capsys, "prove", "--n", "14", "--k", "5") == (1, "", message)
    assert walked == []
    missing = str(tmp_path / "missing.txt")
    assert run(capsys, "prove", "--n", "14", "--k", "5", "--topologies", missing) == \
        (1, "", message)
    assert run(capsys, "prove", "--n", "14", "--k", "5", "--classes", "1") == (1, "", message)
    assert run(capsys, "prove", "--n", "14", "--k", "5", "--classes", "0") == \
        (2, "", "usage error: class count must be at least 1\n")


def test_prove_k7_counts_with_no_flag(capsys, monkeypatch):
    counted = []
    monkeypatch.setattr("mcbound.cli.count_classes",
                        lambda k, **kw: counted.append(k) or 312463157)
    code, stdout, stderr = run(capsys, "prove", "--n", "7", "--k", "7")
    assert "topology_classes = 312463157" in stdout and stderr == ""
    assert counted == [7]


def test_prove_without_verbose_prints_no_progress(capsys, monkeypatch):
    progress = []

    def count_classes(k, **kw):
        progress.append(kw.get("progress"))
        return 312463157

    monkeypatch.setattr("mcbound.cli.count_classes", count_classes)
    _, stdout, stderr = run(capsys, "prove", "--n", "7", "--k", "7")
    assert "topology_classes = 312463157" in stdout
    assert progress == [None] and "[walk" not in stderr


def test_prove_takes_classes_or_topologies_not_both(capsys):
    # the file is never opened: argparse refuses the pair first
    with pytest.raises(SystemExit) as exc:
        main(["prove", "--n", "7", "--k", "6", "--classes", "555709",
              "--topologies", "/nonexistent/file"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --topologies: not allowed with argument --classes" in captured.err


def test_prove_falls_back_to_generate(capsys):
    code, stdout, _ = run(capsys, "prove", "--n", "2", "--k", "1")
    assert "topology_classes = 1" in stdout
    assert code == 1  # 16-function bound is not below |B_2| = 16


def test_repeated_main_calls_leave_no_cyclic_garbage(capsys):
    run(capsys, "prove", "--n", "7", "--k", "3")  # the parser is built once, on first use
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):
            assert run(capsys, "prove", "--n", "7", "--k", "3")[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- verify -----------------------------------------------------------------

def test_verify_m3(capsys):
    code, stdout, _ = run(capsys, "verify", "--suite", "m3")
    assert code == 0
    assert "M(3) = 2" in stdout


def test_verify_completeness(capsys):
    assert run(capsys, "verify", "--suite", "completeness")[0] == 0


def test_verify_rewrites_seeded(capsys):
    code, stdout, _ = run(capsys, "verify", "--suite", "rewrites",
                          "--cases", "50", "--seed", "42")
    assert code == 0
    first = stdout
    code, stdout, _ = run(capsys, "verify", "--suite", "rewrites",
                          "--cases", "50", "--seed", "42")
    assert code == 0 and stdout == first


def test_verify_oracle_topologies(capsys):
    code, stdout, _ = run(capsys, "verify", "--suite", "oracle-topologies",
                          "--max-k", "3")
    assert code == 0
    assert "k=3: 8 classes" in stdout


@long_tier
def test_verify_oracle_topologies_k5(capsys):
    code, stdout, _ = run(capsys, "verify", "--suite", "oracle-topologies",
                          "--max-k", "5")
    assert code == 0
    assert "ok: k=5: 3282 classes match generated representatives\n" in stdout


def test_verify_max_k_out_of_range_is_usage_error(capsys):
    for value in ("0", "6"):
        code, stdout, stderr = run(capsys, "verify", "--suite", "oracle-topologies",
                                   "--max-k", value)
        assert code == 2
        assert "usage error" in stderr and "--max-k" in stderr
        assert stdout == ""


def test_verify_checks_only_the_flags_its_suite_reads(capsys):
    # --max-k is read by oracle-topologies alone, --cases by rewrites alone
    for argv in (("m3", "--max-k", "9", "--cases", "0"),
                 ("rewrites", "--cases", "5", "--max-k", "0"),
                 ("oracle-topologies", "--max-k", "1", "--cases", "-1")):
        code, stdout, stderr = run(capsys, "verify", "--suite", *argv)
        assert code == 0 and stderr == "" and stdout.startswith("ok: "), argv


@pytest.mark.parametrize("argv", [
    ("generate", "--k", "3", "--out", "t.txt", "--allow-long"),
    ("prove", "--n", "7", "--k", "3", "--allow-long"),
    ("verify", "--suite", "m3", "--allow-long"),
    ("verify", "--suite", "m3", "-v"),
], ids=["generate", "prove", "verify", "verify-v"])
def test_removed_flags_are_unrecognized(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-1]}" in capsys.readouterr().err
    assert not (tmp_path / "t.txt").exists()


def test_verify_cases_below_one_is_usage_error(capsys):
    for value in ("0", "-5"):
        code, stdout, stderr = run(capsys, "verify", "--suite", "rewrites", "--cases", value)
        assert code == 2
        assert "usage error" in stderr and "--cases" in stderr
        assert stdout == ""


# --- eval --------------------------------------------------------------------

def test_eval_majority_file(tmp_path, capsys):
    path = tmp_path / "maj4.txt"
    path.write_text(MAJ4_TEXT)
    code, stdout, _ = run(capsys, "eval", str(path))
    assert code == 0
    assert stdout.strip() == "tt n=4 0000000100010111"


def test_eval_constant_top(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("circuit n=2 k=0\nout: {T}\n")
    code, stdout, _ = run(capsys, "eval", str(path))
    assert code == 0
    assert stdout.strip() == "tt n=2 1111"


def test_eval_parse_error_diagnostic(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("circuit n=2 k=1\ngate 1: L={g1} R={}\nout: {}\n")
    code, _, stderr = run(capsys, "eval", str(path))
    assert code == 1
    assert "line" in stderr


def test_eval_not_ascii(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"circuit n=2 k=0\r\nout: {x1,x2} \xe2\x80\x94 xor\r\n")
    code, _, stderr = run(capsys, "eval", str(path))
    assert code == 1
    assert stderr.startswith("error: line 2, col 14: byte 0xe2 is not ASCII")


def test_eval_not_ascii_counts_lines_at_newline_only(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes("circuit n=2 k=0\vout: {x1} \xe9\n".encode())
    code, _, stderr = run(capsys, "eval", str(path))
    assert code == 1
    assert stderr.startswith("error: line 1, col 27: byte 0xc3 is not ASCII")


@pytest.mark.parametrize("parse, text, message, line, col", [
    (parse_topology, "topology k=1\ngate 1: L={\xa0} R={}", "byte 0xc2 is not ASCII", 2, 12),
    (parse_circuit, "circuit n=1 k=1\ngate 1: L={\xa0} R={}\nout: {}\n",
     "byte 0xc2 is not ASCII", 2, 12),
    (parse_truth_table, "\xa0tt n=1 01", "byte 0xc2 is not ASCII", 1, 1),
    (parse_topology, "\n \ntopology k=1\nbad", "expected 'gate <i>: L={...} R={...}'", 4, None),
    (parse_circuit, "\n \ncircuit n=1 k=1\nbad\nout: {}\n",
     "expected 'gate <i>: L={...} R={...}'", 4, None),
    (parse_truth_table, "\n \ntt n=1 0", "need exactly 2 characters of 0/1", 3, None),
    (parse_topology, "\n\ntopology k=1\ngate 1: L={\xe9} R={}", "byte 0xc3 is not ASCII", 4, 12),
    (parse_circuit, "\n\ncircuit n=1 k=0\nout: {\u0661}\n", "byte 0xd9 is not ASCII", 4, 7),
    (parse_truth_table, "\n\ntt n=1 01\u2028", "byte 0xe2 is not ASCII", 3, 10),
    (parse_topology, "topology k=1\ngate 1: L={} R={}\ngate 2: L={} R={1}",
     "expected 1 gate lines", 1, None),
    (parse_circuit, "circuit n=1 k=0\nout: {}\nout: {}\n",
     "expected 0 gate lines and one 'out:' line", 1, None),
    (parse_truth_table, "tt n=1 01\ntt n=1 01", "expected one line 'tt n=<n> <bits>'", 1, None),
], ids=[f"{case}-{fmt}" for case in ("non-ascii", "blank-lines", "non-ascii-after-blank-lines",
                                      "extra-line") for fmt in ("topology", "circuit", "tt")])
def test_texts_number_and_check_lines_as_files_do(parse, text, message, line, col, tmp_path,
                                                  capsys):
    where = f"line {line}" if col is None else f"line {line}, col {col}"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (str(err.value), err.value.line, err.value.col) == (f"{where}: {message}", line, col)
    if parse is parse_circuit:  # a circuit file of the same bytes fails alike
        path = tmp_path / "c.txt"
        path.write_bytes(text.encode())
        code, _, stderr = run(capsys, "eval", str(path))
        assert (code, stderr) == (1, f"error: {err.value}\n")
    if parse is parse_topology:  # and so does the same block in a set
        with pytest.raises(ParseError) as in_set:
            parse_topology_set("topologyset k=1 count=1\n\n" + text)
        assert (in_set.value.line, in_set.value.col) == (line + 2, col)
        assert str(in_set.value) == f"{where.replace(str(line), str(line + 2), 1)}: {message}"


def test_eval_missing_file(capsys):
    code, _, stderr = run(capsys, "eval", "/nonexistent/never.txt")
    assert code == 1
    assert "error" in stderr
