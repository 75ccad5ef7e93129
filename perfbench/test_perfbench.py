"""Tests of the benchmark's own machinery: inputs, checker and span arithmetic.

Run with: python -m pytest -q perfbench
"""
import contextlib
import copy
import io
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import qviterbi  # noqa: E402
import qviterbi.cli  # noqa: E402
import qviterbi.engine  # noqa: E402
from checks import check_report, ml_oracle  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import SPECS, WORKLOADS, analyse, make_inputs, write_code_files  # noqa: E402


@pytest.fixture
def outdir(tmp_path):
    return str(tmp_path / "codes")


def test_same_seed_gives_same_inputs(outdir):
    for workload in WORKLOADS:
        a = make_inputs(workload, 7, outdir)
        b = make_inputs(workload, 7, outdir)
        assert a.input_hash == b.input_hash
        assert [r.argv for r in a.requests] == [r.argv for r in b.requests]
        assert make_inputs(workload, 8, outdir).input_hash != a.input_hash


def test_every_code_has_its_declared_parameters(outdir):
    sources = write_code_files(SPECS, outdir)
    for name, (_, _, nkd) in SPECS.items():
        info = analyse(name, sources[name])
        assert (info.n, info.k, info.d) == nkd
        assert info.codewords.size == 1 << info.k


def test_library_agrees_with_the_benchmark_enumeration(outdir):
    sources = write_code_files(SPECS, outdir)
    for name in SPECS:
        info = analyse(name, sources[name])
        code = qviterbi.load_code(sources[name])
        assert (code.n, code.k, code.d) == (info.n, info.k, info.d)
        assert sorted(c.to_index() for c in code.codespace) == info.codewords.tolist()


def test_received_words_stay_within_radius_plus_one(outdir):
    inputs = make_inputs("oracle_bulk", 3, outdir)
    for req in inputs.requests[:200]:
        info = inputs.codes[req.template.code]
        best, words = ml_oracle(info, req.received)
        assert best <= info.radius + 1 and words


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert qviterbi.cli.main(list(argv)) == 0
    return json.loads(out.getvalue())


def _first(inputs, command, code):
    return next(r for r in inputs.requests if r.template.command == command and r.template.code == code)


@pytest.mark.parametrize("corrupt", [
    lambda r: r["oracle"].__setitem__("best_metric", r["oracle"]["best_metric"] + 1),
    lambda r: r["oracle"]["best_codewords"].pop(),
    lambda r: r["oracle"]["best_codewords"].append("111111"),
    lambda r: r["result"]["distribution"].__setitem__("000000", r["result"]["distribution"].get("000000", 0) + 1e-6),
    lambda r: r.__setitem__("oracle_agrees", not r["oracle_agrees"]),
])
def test_checker_flags_a_corrupted_decode_report(outdir, corrupt):
    inputs = make_inputs("decode_small", 1, outdir)
    req = next(r for r in inputs.requests if r.template.code == "lbc_633" and r.template.p == 1
               and r.template.strategy == "upo" and r.received != "000000")
    report = _run_cli(req.argv)
    code = inputs.codes["lbc_633"]
    assert check_report(req, code, report) == []
    bad = copy.deepcopy(report)
    corrupt(bad)
    assert check_report(req, code, bad)


def test_checker_flags_a_corrupted_oracle_report(outdir):
    inputs = make_inputs("oracle_bulk", 1, outdir)
    req = _first(inputs, "oracle", "conv_r12_m2")
    report = _run_cli(req.argv)
    code = inputs.codes["conv_r12_m2"]
    assert check_report(req, code, report) == []
    report["best_codewords"] = report["best_codewords"][::-1] + report["best_codewords"][:1]
    assert check_report(req, code, report)


def test_self_time_subtracts_covered_child_time():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("child", 1.0, 3.0, 0, 0),
        ("child", 2.5, 4.0, 0, 0),  # overlaps the first child by 0.5
        ("grandchild", 1.5, 2.0, 1, 0),
        ("child", 9.0, 12.0, 0, 0),  # runs past its parent's end by 2.0
    ]
    st = self_times(spans)
    assert st["root"][0] == 1
    assert st["root"][1] == pytest.approx(10.0 - (3.0 + 1.0))
    assert st["child"][0] == 3
    assert st["child"][1] == pytest.approx((2.0 - 0.5) + 1.5 + 3.0)
    assert st["grandchild"][1] == pytest.approx(0.5)


def test_tracer_records_nesting_and_restores_the_program(outdir):
    inputs = make_inputs("oracle_bulk", 1, outdir)
    req = _first(inputs, "oracle", "lbc_633")
    originals = (qviterbi.engine.run_pqc, qviterbi.cli.load_code, dict(qviterbi.engine.TRAINERS))
    tracer = Tracer()
    with tracer.installed(qviterbi.engine, qviterbi.cli):
        tracer.request_id = 5
        with contextlib.redirect_stdout(io.StringIO()):
            assert tracer.wrap(qviterbi.cli.main, "cli.main")(list(req.argv)) == 0
    assert (qviterbi.engine.run_pqc, qviterbi.cli.load_code, dict(qviterbi.engine.TRAINERS)) == originals
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0][3] == -1
    assert {"codes.load_code", "trellis.build_trellis", "trellis.viterbi_decode"} <= set(names)
    assert not any(n.startswith(("statevector.", "engine.", "hamiltonians.")) for n in names)
    assert all(s[3] == 0 and s[4] == 5 for s in tracer.spans[1:])
