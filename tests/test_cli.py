import contextlib
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmrttg import cli, families, reliability, scans
from lmrttg.classify import (
    BAND_MIN_N,
    TABLE_COLUMNS,
    central_band,
    classify,
    quasi_complete_params,
    quasi_star_params,
    spectrum,
)
from lmrttg.cli import main
from lmrttg.errors import DomainError
from lmrttg.families import LMRTTG_MIN_N, lmrttg_ms
from lmrttg.graphs import Graph, TwoTerminalGraph, to_json_obj, vertex_pairs
from lmrttg.scans import TIE_SCAN_MAX_N


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects a malformed argument
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, **kwargs):
    """``python -m lmrttg`` in a subprocess that imports the package from ``src``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "lmrttg", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        **kwargs,
    )


def test_construct_json(capsys):
    code, out, _ = run_cli(capsys, "construct", "--n", "6", "--m", "6", "--family", "c1")
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 6 and len(obj["edges"]) == 6


def test_construct_dot(capsys):
    code, out, _ = run_cli(capsys, "construct", "--n", "6", "--m", "7", "--family", "s2", "--format", "dot")
    assert code == 0
    assert out.startswith("graph G {") and out.count("--") == 7


def test_construct_missing_family_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "construct", "--n", "6", "--m", "6", "--family", "c3")
    assert code == 2
    assert "no member" in err


def test_construct_two_terminal(capsys):
    code, out, _ = run_cli(capsys, "construct", "--n", "6", "--m", "9", "--family", "g")
    assert code == 0
    assert json.loads(out)["terminals"] == [0, 1]


def test_invariants_command(tmp_path, capsys):
    path = tmp_path / "k4.json"
    path.write_text(json.dumps(to_json_obj(Graph.complete(4))))
    code, out, _ = run_cli(capsys, "invariants", "--graph", str(path))
    assert code == 0
    data = json.loads(out)
    assert data == {"m1": 36, "m2": 54, "k3": 4, "p3": 12, "p4": 12, "h_value": 30, "m": 6}


def test_classify_rows(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n", "6..6", "--istar-only")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,m,sign,in_J,k,j,kp,jp,k_n,q_n,R_n"
    ms = [int(line.split(",")[1]) for line in lines[1:]]
    assert ms == [0, 1, 2, 3, 6, 7, 8, 9, 12, 13, 14, 15]


def test_reliability_command(tmp_path, capsys):
    tg = TwoTerminalGraph(Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]), 0, 1)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(to_json_obj(tg)))
    code, out, _ = run_cli(capsys, "reliability", "--graph", str(path), "--at", "1/2")
    assert code == 0
    data = json.loads(out)
    assert data["reliability"] == "23/32"
    assert data["n_vector"] == [1, 6, 10, 5, 1]


def test_reliability_command_counts_once(tmp_path, capsys, monkeypatch):
    calls = []
    nvec = reliability._nvec
    monkeypatch.setattr(reliability, "_nvec", lambda *a: calls.append(a) or nvec(*a))
    tg = TwoTerminalGraph(Graph.from_edges(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]), 0, 1)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(to_json_obj(tg)))
    code, out, _ = run_cli(capsys, "reliability", "--graph", str(path), "--at", "1/3")
    assert code == 0 and len(calls) == 1
    assert json.loads(out)["reliability"] == str(reliability.reliability_at(tg, "1/3"))


def test_reliability_needs_terminals(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(to_json_obj(Graph.complete(3))))
    code, _, err = run_cli(capsys, "reliability", "--graph", str(path), "--at", "1/2")
    assert code == 2 and "terminals" in err


def test_reliability_zero_denominator_is_usage_error(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(to_json_obj(TwoTerminalGraph(Graph.from_edges(3, [(0, 1), (1, 2)]), 0, 1))))
    proc = run_module("reliability", "--graph", str(path), "--at", "1/0")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_reliability_rejects_an_oversized_probability_text(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(to_json_obj(TwoTerminalGraph(Graph.from_edges(3, [(0, 1), (1, 2)]), 0, 1))))
    # Fraction would build 10**(10**8) for the first text; each must fail at once with one short error line
    proc = run_module("reliability", "--graph", str(path), "--at", "1e100000000", timeout=20)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1 and "'1e100000000'" in proc.stderr
    for text in ("1e400", "1e-5000", "1" * 5000, "1/" + "3" * 101):
        code, out, err = run_cli(capsys, "reliability", "--graph", str(path), "--at", text)
        assert (code, out) == (2, "") and err.startswith("error:") and len(err) < 200, text
    bound = reliability.PROBABILITY_TEXT_MAX_DIGITS
    for text in (f"1e-{bound}", "0." + "9" * (bound - 1)):
        code, out, _ = run_cli(capsys, "reliability", "--graph", str(path), "--at", text)
        assert code == 0 and json.loads(out)["at"] == str(Fraction(text)), text


def test_reliability_prints_values_beyond_the_int_text_limit(tmp_path, capsys):
    # K10 has 45 edges, so at 1e-100 the reliability's denominator has 4,501 digits, beyond the
    # interpreter's default limit of 4,300; the second text, 10^-196, has the longest
    # denominator that a text within the digit and exponent bound can have
    k10 = TwoTerminalGraph(Graph.complete(10), 0, 1)
    path = tmp_path / "k10.json"
    path.write_text(json.dumps(to_json_obj(k10)))
    bound, limit = reliability.PROBABILITY_TEXT_MAX_DIGITS, sys.get_int_max_str_digits()
    for text in ("1e-100", "0." + "0" * (bound - 5) + f"1e-{bound}"):
        code, out, err = run_cli(capsys, "reliability", "--graph", str(path), "--at", text)
        assert (code, err, sys.get_int_max_str_digits()) == (0, "", limit), text
        doc = json.loads(out)
        value = reliability.reliability_from_counts(reliability.n_vector(k10), reliability.probability(text))
        sys.set_int_max_str_digits(0)
        try:
            assert doc["reliability"] == str(value)
            assert len(str(value.denominator)) <= reliability.RELIABILITY_MAX_DIGITS
        finally:
            sys.set_int_max_str_digits(limit)


def test_theorem_main_above_search_bound_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "theorem-main", "--min-n", "15", "--max-n", "15", "--m-cap", "5", "--jobs", "1")
    assert code == 2 and out == ""
    assert "theorem-main is limited to n <= 14 (got --max-n 15)" in err


def test_theorem_main_reaches_n_9_without_a_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "theorem-main", "--min-n", "9", "--max-n", "9", "--jobs", "1", *_JSON)
    rep = json.loads(out)
    assert code == 0 and rep["verdict"] == "pass"
    assert rep["pairs_scanned"] == len(rep["records"]) == 32  # m = 5..36


def test_brute_above_coefficient_cap_is_usage_error_before_scanning(capsys, monkeypatch):
    def no_scan(n, m):
        raise AssertionError("scanned before the size check")

    monkeypatch.setattr(reliability, "_prefix_scan", no_scan)
    # the coefficient-vector cap is the search's only vertex cap
    code, out, err = run_cli(capsys, "verify", "brute", "--n", "15", "--m", "5")
    assert code == 2 and out == ""
    assert err == "error: coefficient vectors limited to n <= 14 (got 15)\n"


def test_broken_invariant_is_a_failed_verdict(capsys, monkeypatch):
    # blocks that give the wrong edge count (K6) trip the size invariant
    monkeypatch.setattr(families, "_c_blocks", lambda n, m, tag: [(0, n, True)])
    code, out, err = run_cli(capsys, "construct", "--n", "6", "--m", "6", "--family", "c1")
    assert code == 1 and out == ""
    assert err.startswith("error: invariant failed:") and "(6,15)" in err


def test_jobs_has_no_effect_but_still_rejects_counts_below_one(capsys):
    # the search is serial; theorem-main --jobs only parses, so old command lines keep their exit codes
    code, out, err = run_cli(capsys, "verify", "theorem-main", "--max-n", "4", "--jobs", "0")
    assert code == 2 and out == ""
    assert "error: argument --jobs" in err


def test_verify_all_above_search_bound_fails_before_any_step(capsys, monkeypatch):
    def no_step():
        raise AssertionError("a step ran before the range check")

    monkeypatch.setattr(cli, "verify_seven_pairs", no_step)
    code, out, err = run_cli(capsys, "verify", "all", "--max-n", "15")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "n <= 14" in err


def test_theorem_main_empty_range_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "theorem-main", "--min-n", "5", "--max-n", "4", "--jobs", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "5..4" in err


def test_identities_negative_samples_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "identities", "--samples", "-1")
    assert code == 2 and out == ""
    assert err.splitlines()[-1].endswith("error: argument --samples: need an integer of at least 0; got '-1'")
    # the library keeps its own check
    with pytest.raises(DomainError, match=r"need samples >= 0; got -1"):
        scans.identity_suite(0, -1)


@pytest.mark.parametrize(
    "bounds, last_line",
    [
        (("9", "8"), "error: need 8 <= --from <= --to; got --from 9 --to 8"),
        (("1", "0"), "lmrttg verify {}: error: argument --from: need an integer of at least 8; got '1'"),
    ],
    ids=["descending", "below-band"],
)
def test_bounds_empty_range_is_usage_error(capsys, bounds, last_line):
    # an n below the band is the option's own error; a descending range is the library's
    for command in ("bounds", "istar-scan"):
        code, out, err = run_cli(capsys, "verify", command, "--from", bounds[0], "--to", bounds[1])
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == last_line.format(command) and err.count("error") == 1, err


def test_verify_all_without_a_uniqueness_pair_is_usage_error(capsys, monkeypatch):
    def no_step():
        raise AssertionError("a step ran before the range check")

    monkeypatch.setattr(cli, "verify_seven_pairs", no_step)
    code, out, err = run_cli(capsys, "verify", "all", "--max-n", "3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "4..3" in err


def test_classify_empty_range_prints_the_header_alone(capsys):
    assert run_cli(capsys, "classify", "--n", "4..2") == (0, "n,m,sign,in_J,k,j,kp,jp,k_n,q_n,R_n\n", "")
    assert run_cli(capsys, "classify", "--n", "4..2", "--format", "json") == (0, "[]\n", "")


def test_negative_n_is_usage_error_naming_the_option(capsys):
    # every n option has one argument type, so a negative n fails before any
    # work, with or without --istar-only, and the message names the option;
    # so does --samples, and a descending band range names both its options
    negative = "error: argument {}: need an integer of at least 0; got '-"
    cases = [
        (("classify", "--n=-3..6"), negative.format("--n")),
        (("classify", "--n=-3..6", "--istar-only"), negative.format("--n")),
        (("classify", "--n", "2..-1", "--format", "json"), negative.format("--n")),
        (("verify", "theorem-main", "--min-n=-2"), negative.format("--min-n")),
        (("verify", "theorem-main", "--max-n=-1"), negative.format("--max-n")),
        (("verify", "all", "--max-n=-1"), negative.format("--max-n")),
        (("verify", "identities", "--samples=-1"), negative.format("--samples")),
        (("verify", "istar-scan", "--from", "9", "--to", "8"), "error: need 8 <= --from <= --to; got --from 9 --to 8"),
        (("verify", "bounds", "--from", "20", "--to", "10"), "error: need 8 <= --from <= --to; got --from 20 --to 10"),
    ]
    for argv, text in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert text in err, argv


_JSON = ("--format", "json", "--no-meta")


@pytest.mark.parametrize(
    "argv, digest",
    [
        # the classify CSV digest is the one the benchmark pins; the other
        # benchmark commands follow, each in JSON without timing
        (("classify", "--n", "5..60", "--format", "csv"), "ed77332ac56985c7c106d1bc3d8ad05d6b53b281d3a2cfc6cc60e1efe23f87b8"),
        (
            ("verify", "istar-scan", "--from", "8", "--to", "436", *_JSON),
            "d356f29bb363185b3f15380ec217c3f84daae8f48373e3a38860a2b9deac8aed",
        ),
        (("classify", "--n", "5..60", "--format", "json"), "03836c87a8730071748dab49a095245e5f461c631504341678ebd1cb678865c8"),
        (("verify", "seven-pairs", *_JSON), "19c9978cdd0c354e43ab73d5abdec1dca50a883319f3b377644b970b4af9f151"),
        (
            ("verify", "bounds", "--from", "8", "--to", "100", *_JSON),
            "3fad1cc78e0a9d10e06a406f230b392d79bc09ae9fbff1a6f8d112d32f6433e1",
        ),
        (("verify", "sturm", *_JSON), "4d784dd8115200d9bfebb90e99aa7ec0f4a7c5806f6f7566960d510932142f92"),
        (
            ("verify", "identities", "--seed", "1", "--samples", "2000", *_JSON),
            "3282ddb52d1bd9eba228e0ed5709a5266f0d282dfeca3318e9114cd58ab8102d",
        ),
        (
            ("verify", "theorem-main", "--min-n", "6", "--max-n", "6", "--jobs", "1", *_JSON),
            "84ade46246656988ffef843a64baa5eee679916e761bd97b224836de16dec1e0",
        ),
        (
            ("verify", "theorem-main", "--min-n", "7", "--max-n", "7", "--m-cap", "12", "--jobs", "1", *_JSON),
            "1d8e995b05baaeab61b656d1e2537771204ff098d21bd2893b0f3ff4e6802a8e",
        ),
        (("verify", "brute", "--n", "7", "--m", "14", *_JSON), "51d7e7a3fa059c4c00ee068e4e80b9d189b8a6363b90170fe680b4ec436deacd"),
        (("verify", "brute", "--n", "7", "--m", "21", *_JSON), "e1de630c7e6b258715b7189d7f9a4784afceb02d0a57a53d5fa5cc0336678c77"),
        (
            ("verify", "brute", "--deep", "--n", "8", "--m", "8", *_JSON),
            "1cd7ba1a7511bb5e7c6ef890c2eec47f7d402c4246c24fed9146086191246e43",
        ),
        (
            ("verify", "brute", "--deep", "--n", "8", "--m", "9", *_JSON),
            "a4a285978dc7e9aac5e90820ea405bef014c9bf538990dc28d7c3635306879f8",
        ),
        # --deep has no effect: the same pairs print the same bytes without it
        (("verify", "brute", "--n", "8", "--m", "8", *_JSON), "1cd7ba1a7511bb5e7c6ef890c2eec47f7d402c4246c24fed9146086191246e43"),
        (("verify", "brute", "--n", "8", "--m", "9", *_JSON), "a4a285978dc7e9aac5e90820ea405bef014c9bf538990dc28d7c3635306879f8"),
        # the dense, middle and sparse winners at n = 10, and theorem-main at n = 9 and 10:
        # taken before twin classes entered the key walk, so they pin its keys
        (("verify", "brute", "--n", "10", "--m", "45", *_JSON), "3e724d64214ea93e4036525b5c5bf5d841944565584671a22fc5c512deb76c91"),
        (("verify", "brute", "--n", "10", "--m", "30", *_JSON), "c51446c0df974a5596dfa2f5b30a6958a4cdd6b0918356bb8f1cf1ef945c5d41"),
        (("verify", "brute", "--n", "10", "--m", "17", *_JSON), "ebcdaf310d7a85bb903f8173a92260f3462346e60838aa168c2c5c9267367384"),
        (
            ("verify", "theorem-main", "--min-n", "9", "--max-n", "10", "--jobs", "1", *_JSON),
            "8cffb7c1b3c749fc534b95151763f3658843757e26ed14400c73b807fef09ba9",
        ),
        # an even sparse pair (36 labelled maximisers of one class, scored as one
        # graph) and a dense pair at n = 12, taken with the vertex-capped key walk
        # raised to reach them, so they pin its keys and scoring
        (("verify", "brute", "--n", "12", "--m", "20", *_JSON), "1701a558b937c408b1464b65dc6bbef052650358fb609cafe6a52f4e9c32416b"),
        (("verify", "brute", "--n", "12", "--m", "40", *_JSON), "654119112b89b48082f80e8878b142535025bbabae328176cf70b22c209b0d43"),
        # rows below CLASSIFY_MIN_N (no sign) and the tie rows alone, taken before
        # the table was written in runs, so they pin the run writer
        (("classify", "--n", "1..12", "--format", "csv"), "322e0c8115fbdf10a2095736e4b1e84394235abadda2d788d2f65335850ac044"),
        (("classify", "--n", "1..12", "--format", "json"), "27e184f833ba9f9729d86fdf17f9244ed98f1ad040fd46e407c79857c43e4fe9"),
        (
            ("classify", "--n", "1..60", "--istar-only", "--format", "csv"),
            "744d17b4f329f4bfab9a67e1ae6b8562cff7c55427931fe6a3c938b1196d52e4",
        ),
        (
            ("classify", "--n", "1..60", "--istar-only", "--format", "json"),
            "39171ef77844d68c7653cd08ecbf05c2f1f52f8b39bc2493be2925030ce55117",
        ),
    ],
)
def test_pinned_output_bytes(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class _CountingOut(io.StringIO):
    """A text stdout that counts its writes."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize(
    "obj",
    [{}, {"n": 5, "ok": True, "edges": [[0, 1]], "at": Fraction(1, 2)}, scans.scan_tie_band(8, TIE_SCAN_MAX_N).to_json_obj()],
    ids=["empty", "record", "istar-scan"],
)
def test_print_json_writes_the_dumps_bytes_in_batches(monkeypatch, obj):
    # the one JSON writer: json.dumps's bytes and a newline, in at most one
    # write per 1,024 encoder chunks plus one for the newline
    chunks = sum(1 for _ in json.JSONEncoder(indent=2, sort_keys=True, default=str).iterencode(obj))
    if "records" in obj:
        assert chunks == 14430
    out = _CountingOut()
    monkeypatch.setattr(sys, "stdout", out)
    cli._print_json(obj)
    assert out.getvalue() == json.dumps(obj, indent=2, sort_keys=True, default=str) + "\n"
    assert out.writes <= -(-chunks // 1024) + 1


def test_classify_istar_only_keeps_only_ties(capsys):
    code, out, _ = run_cli(capsys, "classify", "--n", "3..5", "--istar-only")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [int(r[1]) for r in rows] == [0, 1, 2, 3, 5, 7, 8, 9, 10]
    assert all(r[0] == "5" and r[2] == "=" for r in rows)


def _classify_expected(n):
    """Each classify row at n from the pair-by-pair decision: ``classify``,
    the central band and the two parameter pairs of m."""
    band = central_band(n)
    for m in range(comb(n, 2) + 1):
        sign = classify(n, m)
        yield (n, m, "" if sign is None else str(sign), int(m in band), *quasi_complete_params(m), *quasi_star_params(n, m))


def test_classify_rows_match_pair_by_pair_classification(capsys):
    # every row of every n up to 120, in CSV with and without --istar-only, and
    # the same rows in JSON: the tie rows for every n, all rows for n <= 40 and
    # n = 120 (indented JSON of all 288,101 rows takes seconds, and both
    # formats print the same row tuples)
    json_all = {*range(41), 120}
    for n in range(121):
        expected = list(_classify_expected(n))
        ties_only = [row for row in expected if row[2] == "="]
        for flag, want in (((), expected), (("--istar-only",), ties_only)):
            code, out, _ = run_cli(capsys, "classify", "--n", str(n), *flag)
            assert code == 0
            got = [tuple(line.split(",")[:8]) for line in out.splitlines()[1:]]
            assert got == [tuple(map(str, row)) for row in want], (n, flag)
            if flag or n in json_all:
                code, out, _ = run_cli(capsys, "classify", "--n", str(n), *flag, "--format", "json")
                assert code == 0
                got = [tuple(rec[col] for col in TABLE_COLUMNS[:8]) for rec in json.loads(out)]
                assert got == want, (n, flag)


def _classify_records(ns, istar_only=False):
    """The classify JSON objects of the n in ``ns``, from the pair-by-pair rows
    and ``spectrum``, whose columns are empty below n = 5."""
    for n in ns:
        tail = (spectrum(n).k, str(spectrum(n).q), str(spectrum(n).r)) if n >= 5 else ("", "", "")
        for row in _classify_expected(n):
            if not istar_only or row[2] == "=":
                yield dict(zip(TABLE_COLUMNS, (*row, *tail)))


@pytest.mark.parametrize("lo, hi, flags", [(0, 4, ()), (4, 9, ("--istar-only",)), (0, 40, ())])
def test_classify_json_is_the_indented_row_list(capsys, lo, hi, flags):
    # the blocks written one n at a time join into the indented JSON of the whole list
    code, out, _ = run_cli(capsys, "classify", "--n", f"{lo}..{hi}", *flags, "--format", "json")
    want = list(_classify_records(range(lo, hi + 1), bool(flags)))
    assert (code, out) == (0, json.dumps(want, indent=2, sort_keys=True) + "\n")


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


def test_classify_json_writes_once_per_n(monkeypatch):
    # memory holds one n's rows at a time: one write per n with rows (n = 3 and 4
    # have no tie rows), and one that closes the list
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["classify", "--n", "3..12", "--istar-only", "--format", "json"]) == 0
    assert len([text for text in out.writes if text]) == len(range(5, 13)) + 1
    assert out.getvalue() == json.dumps(list(_classify_records(range(3, 13), True)), indent=2, sort_keys=True) + "\n"


def test_theorem_main_records_do_not_depend_on_jobs(capsys):
    outs = []
    for jobs in ("1", "2"):
        code, out, _ = run_cli(capsys, "verify", "theorem-main", "--max-n", "6", "--jobs", jobs, "--format", "json", "--no-meta")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert len(json.loads(outs[0])["records"]) == sum(comb(n, 2) - 4 for n in (4, 5, 6))


def test_verify_brute_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "brute", "--n", "4", "--m", "5", "--no-meta")
    assert code == 0
    data = json.loads(out)
    assert data["unique"] and data["matches_construction"]
    assert "elapsed" not in data


def test_verify_brute_unverifiable_range_fails(capsys):
    # below the covered edge range there is no construction to match
    code, out, _ = run_cli(capsys, "verify", "brute", "--n", "4", "--m", "3", "--no-meta")
    assert code == 1
    assert json.loads(out)["matches_construction"] is None


def test_verify_sturm(capsys):
    code, out, _ = run_cli(capsys, "verify", "sturm", "--no-meta")
    assert code == 0
    assert json.loads(out)["roots_in_436_437"] == 1


def test_verify_sturm_failing_root_count_fails(capsys, monkeypatch):
    # a second root in (436, 437] breaks the isolation, and the record's ok says so
    count_roots = scans.count_roots
    monkeypatch.setattr(scans, "count_roots", lambda p, a, b: 2 if (a, b) == (436, 437) else count_roots(p, a, b))
    code, out, _ = run_cli(capsys, "verify", "sturm", "--no-meta")
    assert code == 1
    assert '"ok": false' in out and json.loads(out)["roots_in_436_437"] == 2


def test_verify_sturm_fails_on_roots_past_its_window(capsys, monkeypatch):
    # (x - 873/2)(x - 2*10^6)(x - 3*10^6), as eighths, has the margin's root in
    # (436, 437] and its sign at 437, but two more roots beyond the (437, 10^6]
    # it reports; its shift to 436 has three sign variations, so Descartes'
    # rule leaves the count open and the run stops with exit 1, no record
    a, b, c = Fraction(873, 2), 2 * 10**6, 3 * 10**6
    cubic = tuple((int(8 * x), 0) for x in (-a * b * c, a * b + a * c + b * c, -(a + b + c), 1))
    monkeypatch.setattr(scans, "MARGIN", cubic)
    code, out, err = run_cli(capsys, "verify", "sturm", "--no-meta")
    assert (code, out) == (1, "")
    assert "invariant failed: 3 sign variations beyond 436" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("seven-pairs",),
        ("istar-scan", "--from", "8", "--to", "9"),
        ("theorem-main", "--min-n", "4", "--max-n", "4"),
        ("brute", "--n", "4", "--m", "5"),
        ("brute", "--n", "4", "--m", "3"),  # no construction below m = 5: a failing record
        ("sturm",),
        ("identities", "--samples", "5"),
        ("bounds", "--from", "8", "--to", "9"),
        ("all", "--max-n", "4"),
    ],
    ids=" ".join,
)
def test_every_verify_document_carries_its_verdict(capsys, argv):
    # one verdict rule: a report's verdict or a record's boolean ok, and the exit code agrees
    code, out, _ = run_cli(capsys, "verify", *argv, "--format", "json", "--no-meta")
    doc = json.loads(out)
    if "verdict" in doc:
        assert doc["verdict"] in ("pass", "fail")
        passed = doc["verdict"] == "pass"
    else:
        assert isinstance(doc["ok"], bool)
        passed = doc["ok"]
    assert code == (0 if passed else 1)


def test_verify_meta_mode_times_each_check(capsys):
    # without --no-meta every verify document carries its check's time in seconds, rounded to ms
    for argv in (["sturm"], ["brute", "--n", "4", "--m", "5"], ["istar-scan", "--from", "8", "--to", "12", "--format", "json"]):
        code, out, _ = run_cli(capsys, "verify", *argv)
        elapsed = json.loads(out)["elapsed"]
        assert code == 0 and elapsed == round(elapsed, 3) >= 0, argv


def test_verify_seven_pairs_alias(capsys):
    code_a, out_a, _ = run_cli(capsys, "verify", "lemma7", "--no-meta", "--format", "json")
    assert code_a == 0
    assert json.loads(out_a)["verdict"] == "pass"


def test_verify_identities_flags(capsys):
    code, out, _ = run_cli(capsys, "verify", "identities", "--seed", "3", "--samples", "25", "--format", "json", "--no-meta")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_byte_stable_outputs(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, "classify", "--n", "5..6")
        outs.add(out)
    assert len(outs) == 1
    outs = set()
    for _ in range(2):
        _, out, _ = run_cli(capsys, "verify", "istar-scan", "--from", "8", "--to", "12", "--no-meta", "--format", "json")
        outs.add(out)
    assert len(outs) == 1


def test_verify_all_desk_scale(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--max-n", "4", "--no-meta")
    assert code == 0
    assert "FAIL" not in out


def test_band_scan_defaults_come_from_their_constants():
    parser = cli.build_parser()
    istar = parser.parse_args(["verify", "istar-scan"])
    bounds = parser.parse_args(["verify", "bounds"])
    # bounds checks the tail's premises on every n that the tie scan covers
    assert (istar.from_n, istar.to_n) == (bounds.from_n, bounds.to_n) == (BAND_MIN_N, TIE_SCAN_MAX_N)


def test_theorem_range_defaults_come_from_lmrttg_ms(capsys, monkeypatch):
    assert not lmrttg_ms(LMRTTG_MIN_N - 1) and lmrttg_ms(LMRTTG_MIN_N) == range(5, 7)
    assert inspect.signature(scans.scan_uniqueness).parameters["n_min"].default == LMRTTG_MIN_N
    assert cli.build_parser().parse_args(["verify", "theorem-main"]).min_n == LMRTTG_MIN_N
    # both --max-n follow one default, whatever it is, and it stays at 10,
    # within the search's reach
    assert cli.THEOREM_MAX_N_DEFAULT == 10 <= reliability.NVEC_MAX_VERTICES
    for cap in (cli.THEOREM_MAX_N_DEFAULT, cli.THEOREM_MAX_N_DEFAULT - 1):
        monkeypatch.setattr(cli, "THEOREM_MAX_N_DEFAULT", cap)
        parser = cli.build_parser()
        assert [parser.parse_args(["verify", cmd]).max_n for cmd in ("theorem-main", "all")] == [cap, cap]
    # verify all's theorem-main steps start at the constant, whatever it is
    monkeypatch.setattr(cli, "LMRTTG_MIN_N", LMRTTG_MIN_N + 1)
    assert cli.build_parser().parse_args(["verify", "theorem-main"]).min_n == LMRTTG_MIN_N + 1
    steps = []
    monkeypatch.setattr(cli, "_outcome", lambda args: steps.append(args) or ({}, True))
    assert run_cli(capsys, "verify", "all", "--max-n", "7")[0] == 0
    found = [(a.min_n, a.max_n) for a in steps if a.verify_cmd == "theorem-main"]
    assert found == [(n, n) for n in range(LMRTTG_MIN_N + 1, 8)]


def test_verify_all_md_is_the_single_checks_in_turn(capsys):
    singles = [
        ("seven-pairs",),
        ("istar-scan",),
        ("identities", "--seed", "0"),
        ("bounds",),
        ("theorem-main", "--min-n", "4", "--max-n", "4", "--jobs", "1"),
        ("sturm",),
    ]
    expected = ""
    for argv in singles:
        code, out, _ = run_cli(capsys, "verify", *argv, "--no-meta")
        assert code == 0
        expected += out
    code, out, _ = run_cli(capsys, "verify", "all", "--max-n", "4", "--no-meta")
    assert code == 0
    assert out == expected


def test_verify_all_json_is_one_document_with_the_decomposition_check(capsys, monkeypatch):
    # a planted decomposition violation must reach the bounds report and the overall verdict
    monkeypatch.setattr(scans, "band_decomposition_violations", lambda lo, hi: [(lo, 0, 0)])
    code, out, _ = run_cli(capsys, "verify", "all", "--max-n", "4", "--format", "json", "--no-meta")
    doc = json.loads(out)
    assert code == 1 and doc["verdict"] == "fail"
    reports = doc["reports"]
    scopes = [r.get("scope", "sturm") for r in reports]
    assert len(reports) == 6
    assert scopes[0] == "seven exceptional pairs" and scopes[-1] == "sturm"
    assert reports[-1]["roots_in_436_437"] == 1
    (bounds,) = [r for r in reports if r.get("scope", "").startswith("band polynomial bounds")]
    assert bounds["verdict"] == "fail"
    assert bounds["records"] == [{"check": "decomposition bounds", "violations": [[8, 0, 0]], "ok": False}]
    assert all(r["verdict"] == "pass" for r in reports[:-1] if r is not bounds)


@pytest.mark.parametrize(
    "content",
    [
        '{"edges": [[0, 1]]}',
        '{"n": 3}',
        '{"n": 3, "edges": [["a", 1]]}',
        "[[0, 1]]",
        '{"n": 3, "edges": [[0, 1]], "terminals": [0]}',
        "[" * 1100 + "]" * 1100,  # json.loads recurses once per bracket, past the recursion limit
        None,
    ],
    ids=["missing-n", "missing-edges", "string-endpoint", "top-level-list", "one-terminal", "deeply-nested", "directory"],
)
def test_malformed_graph_file_is_usage_error(tmp_path, content):
    path = tmp_path
    if content is not None:
        path = tmp_path / "g.json"
        path.write_text(content)
    for argv in (("invariants", "--graph", str(path)), ("reliability", "--graph", str(path), "--at", "1/2")):
        proc = run_module(*argv)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
        assert "Traceback" not in proc.stderr


def test_graph_file_above_the_vertex_bound_is_usage_error(tmp_path):
    # the bound is checked before any row is allocated; the child's address
    # space is capped so that a regression fails fast instead of paging
    resource = pytest.importorskip("resource")
    path = tmp_path / "g.json"
    path.write_text('{"n": 1000000000000, "edges": []}')

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    for argv in (("invariants", "--graph", str(path)), ("reliability", "--graph", str(path), "--at", "1/2")):
        proc = run_module(*argv, preexec_fn=cap_memory)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "error: graph JSON: 'n' must lie in 0..65536, got 1000000000000\n"


def test_input_too_large_for_memory_is_usage_error():
    # never in process: each input runs the child out of its capped address space
    resource = pytest.importorskip("resource")

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))

    for family in ("c1", "g"):
        proc = run_module("construct", "--n", "1000000000", "--m", "5", "--family", family, preexec_fn=cap_memory)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "error: construct: --n must be at most 65536, got 1000000000\n"
    # c1 on C(n,2) - 5 edges needs 65536 rows of 65536 bits, 512 MB
    near_complete = str(comb(65536, 2) - 5)
    for argv in (("construct", "--n", "65536", "--m", near_complete, "--family", "c1"), ("classify", "--n", "100000")):
        proc = run_module(*argv, preexec_fn=cap_memory)
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert proc.stderr == "error: out of memory: the input is too large for this machine\n"
    # s1 is built from its mirror's creation blocks, never from the mirror's rows
    proc = run_module("construct", "--n", "65536", "--m", "5", "--family", "s1", preexec_fn=cap_memory)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert json.loads(proc.stdout) == {"n": 65536, "edges": [[0, v] for v in range(1, 6)]}


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_module_entry_point():
    proc = run_module("construct", "--n", "5", "--m", "5", "--family", "s1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 5


# ---------------------------------------------------------------------------
# Exit-code contract under generated arguments: 0, 1 or 2, never an escape.
# ---------------------------------------------------------------------------


_NOT_INTEGERS = ("x", "", "1.5", "1e3", "-")


def _int_arg(lo, hi):
    """A decimal integer in [lo, hi] or, now and then, a word that is not one."""
    return st.integers(lo, hi + len(_NOT_INTEGERS)).map(lambda i: str(i) if i <= hi else _NOT_INTEGERS[i - hi - 1])


def _argv(*parts):
    """Strategy for one flat argv from fixed words, tuples of words and strategies of either."""
    drawn = [p if isinstance(p, st.SearchStrategy) else st.just(p) for p in parts]
    return st.tuples(*drawn).map(lambda ps: [w for p in ps for w in (p if isinstance(p, tuple) else (p,))])


_graph_obj = st.integers(2, 7).flatmap(
    lambda n: st.fixed_dictionaries(
        {"n": st.just(n), "edges": st.lists(st.sampled_from(vertex_pairs(n)), unique=True, max_size=12)},
        optional={"terminals": st.just([0, 1])},
    )
)
_malformed_graph_obj = st.fixed_dictionaries(
    {},
    optional={
        "n": st.one_of(st.integers(-1, 9), st.sampled_from(["3", 2.5, None, True])),
        "edges": st.lists(st.tuples(st.integers(-1, 9), st.integers(-1, 9)), max_size=8),
        "terminals": st.lists(st.integers(-1, 9), max_size=3),
    },
)
_graph_text = st.one_of(
    _graph_obj.map(json.dumps),
    _malformed_graph_obj.map(json.dumps),
    st.sampled_from(
        ["", "{", "[]", "null", '{"n": 1e999}', '{"n": 3, "edges": {}}', '{"n": 1000000000000, "edges": []}']
    ),
)
_at = st.one_of(
    st.sampled_from(["1/2", "0", "1", "2", "-1/3", "1/0", "abc", "", "0.25", "nan", "inf", "1e-3"]),
    st.fractions(0, 1, max_denominator=9).map(str),
)
_commands = st.one_of(
    _argv(
        ("construct", "--n"),
        _int_arg(-1, 12),
        "--m",
        _int_arg(-1, 40),
        "--family",
        st.sampled_from(["c1", "c2", "c3", "s1", "s2", "s3", "h", "g", "q"]),
        st.sampled_from([(), ("--format", "dot")]),
    ),
    _argv(
        ("classify", "--n"),
        st.one_of(
            st.tuples(st.integers(-2, 12), st.integers(-2, 12)).map(lambda ab: f"{ab[0]}..{ab[1]}"),
            _int_arg(-2, 12),
            st.sampled_from(["a..b", "5..", "..6"]),
        ),
        st.sampled_from([(), ("--istar-only",)]),
        st.sampled_from([(), ("--format", "json")]),
    ),
    _argv(("invariants", "--graph", "GRAPH")),
    _argv(("reliability", "--graph", "GRAPH", "--at"), _at),
    _argv(("verify", "brute", "--n"), _int_arg(2, 6), "--m", _int_arg(3, 15), st.sampled_from([(), ("--deep",)])),
    _argv(
        st.sampled_from([("verify", "istar-scan"), ("verify", "bounds")]),
        "--from",
        _int_arg(-3, 14),
        "--to",
        _int_arg(-3, 20),
    ),
    _argv(
        ("verify", "theorem-main", "--min-n"),
        _int_arg(-2, 5),
        "--max-n",
        _int_arg(-2, 5),
        "--jobs",
        st.sampled_from(["1", "0", "two"]),
        st.one_of(st.just(()), st.tuples(st.just("--m-cap"), _int_arg(-1, 12))),
    ),
    # at most n = 3 no theorem-main step has a pair, so no step runs
    _argv(("verify", "all", "--max-n"), _int_arg(-2, 3)),
)


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "g.json"


@settings(max_examples=250)
@given(argv=_commands, graph_text=_graph_text)
def test_generated_arguments_keep_the_exit_code_contract(graph_path, argv, graph_text):
    graph_path.write_text(graph_text)
    argv = [str(graph_path) if a == "GRAPH" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a malformed argument
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
