import io
import json
import logging
import runpy
import sys
import time
from pathlib import Path

import pytest

from rootfield.bench import (CSV_COLUMNS, BenchRow, load_sweep, parse_sweep,
                             run_sweep, write_csv)


# -- sweep grammar ---------------------------------------------------------------

def test_parse_lists():
    assert parse_sweep("q=3 m=9,17 r=5") == [(3, 9, 5), (3, 17, 5)]


def test_parse_ranges():
    assert parse_sweep("q=2 m=4..8:2 r=3") == [(2, 4, 3), (2, 6, 3), (2, 8, 3)]
    assert parse_sweep("q=2 m=2..4 r=3") == [(2, 2, 3), (2, 3, 3), (2, 4, 3)]


def test_parse_groups_and_alias():
    got = parse_sweep("p=3 m=9 r=5; q=4 m=5 r=7")
    assert got == [(3, 9, 5), (4, 5, 7)]


def test_parse_cartesian_product():
    assert len(parse_sweep("q=3,5 m=2,4 r=7,11")) == 8


def test_parse_empty():
    assert parse_sweep("") == []
    assert parse_sweep(" ; ") == []


def test_parse_errors():
    with pytest.raises(ValueError, match="missing"):
        parse_sweep("q=3 m=9")
    with pytest.raises(ValueError, match="bad sweep token"):
        parse_sweep("q=3 m=9 junk r=5")
    # a range that would drop values or yield none names its token
    for bad in ("9..7:-1", "5..2", "2..5:0"):
        with pytest.raises(ValueError, match=f"bad sweep range '{bad}'"):
            parse_sweep(f"q=3 m={bad} r=5")
    assert parse_sweep("q=3 m=5..5 r=5") == [(3, 5, 5)]


def test_load_sweep(tmp_path):
    f = tmp_path / "sweep.txt"
    f.write_text("# crossover scan\nq=3 m=9 r=5\n\nq=4 m=5 r=7  # strict\n")
    assert load_sweep(str(f)) == [(3, 9, 5), (4, 5, 7)]


# -- running ----------------------------------------------------------------------

def test_ramified_pair_7_5_2():
    rows = run_sweep([(7, 5, 2)])
    assert [r.path_tag for r in rows] == ["ramified_fast", "naive_fallback"]
    fast, naive = rows
    assert fast.cells()[:-1] == ["7", "1", "5", "2", "ramified",
                                 "ramified_fast", "4", "7", "2", "2", "2",
                                 "1", "2", "true"]
    assert naive.cells()[:-1] == ["7", "1", "5", "2", "ramified",
                                  "naive_fallback", "4", "13", "0", "2", "2",
                                  "1", "2", "true"]


def test_coprime_pair_3_9_5():
    fast, naive = run_sweep([(3, 9, 5)])
    assert fast.case_tag == naive.case_tag == "coprime"
    assert (fast.mults, fast.squarings, fast.frobenius) == (4, 8, 4)
    assert (naive.mults, naive.squarings, naive.frobenius) == (7, 14, 0)
    assert (fast.n, fast.n_prime, fast.k, fast.period) == (2, 2, 4, 4)


def test_higher_power_single_row():
    rows = run_sweep([(13, 1, 2)])
    assert len(rows) == 1
    row = rows[0]
    assert (row.case_tag, row.path_tag) == ("higher_power", "amm")
    assert (row.n, row.n_prime, row.period) == (None, None, None)
    assert row.verified


def test_composite_r_runs_auto():
    # 4 divides 12 with cofactor 3, so the triple classifies as ramified,
    # but composite r has no forced path; the dispatcher chains 2 * 2
    rows = run_sweep([(13, 1, 4)])
    assert len(rows) == 1
    assert rows[0].path_tag == "composite_chain"
    assert rows[0].case_tag == "ramified"


def test_base_q_counts_4_5_7():
    fast, naive = run_sweep([(4, 5, 7)])
    assert (fast.p, fast.d, fast.m) == (2, 2, 5)
    assert (fast.n, fast.n_prime, fast.k, fast.period) == (1, 3, 3, 3)
    assert naive.n == 1  # metadata does not depend on the path


def test_short_extension_drops_to_naive(caplog):
    # 3^4 - 1 = 80: r = 5 ramifies but k*r = 20 > m, no periodic split
    with caplog.at_level(logging.WARNING, logger="rootfield.bench"):
        rows = run_sweep([(3, 4, 5)])
    assert [r.path_tag for r in rows] == ["naive_fallback"]
    assert rows[0].period is None
    assert any("skipping path periodic" in rec.getMessage()
               for rec in caplog.records)


def test_large_prime_r_sweep_fails_fast(caplog):
    # no periodic split exists, so the sweep logs the typed refusal and
    # keeps the naive row; the order search must not walk up to r
    start = time.monotonic()
    with caplog.at_level(logging.WARNING, logger="rootfield.bench"):
        rows = run_sweep([(3, 61, 2 ** 31 - 1)])
    assert time.monotonic() - start < 5
    assert [(r.path_tag, r.k, r.period) for r in rows] == [
        ("naive_fallback", 715827882, None)]
    assert [rec.getMessage() for rec in caplog.records] == [
        "skipping path periodic for (q=3, m=61, r=2147483647): "
        "no periodic split for m=61, r=2147483647"]


def test_unrunnable_triples_are_logged(caplog):
    with caplog.at_level(logging.WARNING, logger="rootfield.bench"):
        assert run_sweep([(12, 2, 5)]) == []  # 12 is not a prime power
        assert run_sweep([(3, 4, 3)]) == []  # r shares the characteristic
        assert run_sweep([(13, 1, 6)]) == []  # cofactor 2 entangled with 6
    assert len(caplog.records) == 3


def test_rows_sorted():
    rows = run_sweep(parse_sweep("q=3 m=9 r=5; q=7 m=5 r=2; q=2 m=10 r=7"))
    keys = [(r.p, r.m, r.r, r.d, r.path_tag == "naive_fallback")
            for r in rows]
    assert keys == sorted(keys)


def test_determinism_modulo_wall_time():
    a = run_sweep(parse_sweep("q=3 m=9 r=5; q=13 m=1 r=2"), seed=3)
    b = run_sweep(parse_sweep("q=3 m=9 r=5; q=13 m=1 r=2"), seed=3)
    assert [r.cells()[:-1] for r in a] == [r.cells()[:-1] for r in b]


# -- CSV --------------------------------------------------------------------------

def test_csv_header_only():
    buf = io.StringIO()
    write_csv([], buf)
    assert buf.getvalue() == ",".join(CSV_COLUMNS) + "\n"


def test_csv_row_shape():
    buf = io.StringIO()
    rows = run_sweep([(7, 5, 2)])
    write_csv(rows, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 3
    assert lines[0].split(",") == list(CSV_COLUMNS)
    assert lines[1].startswith("7,1,5,2,ramified,ramified_fast,4,7,2,2,2,1,2,true,")
    assert int(lines[1].rsplit(",", 1)[1]) > 0


def test_optional_cells_render_empty():
    row = BenchRow(13, 1, 1, 2, "higher_power", "amm", 4, 7, 0, None, None,
                   1, None, True, 12345)
    assert row.cells() == ["13", "1", "1", "2", "higher_power", "amm", "4",
                           "7", "0", "", "", "1", "", "true", "12345"]


# -- per-layer timing script ---------------------------------------------------

ROOT = Path(__file__).parents[1]


def bench_layers():
    script = ROOT / "scripts" / "bench_layers.py"
    return runpy.run_path(str(script), run_name="bench_layers")["main"]


@pytest.fixture(scope="module")
def aa_run(tmp_path_factory):
    """An A/A run: this tree on both sides, one repeat, small grids."""
    out = tmp_path_factory.mktemp("bench_layers") / "bench.json"
    assert bench_layers()([str(ROOT), str(ROOT), "--field", "3,9",
                           "--build", "2,17", "--amm", "13,3,2",
                           "--repeats", "1", "--out", str(out)]) == 0
    assert not any(name.startswith("rf_") for name in sys.modules)
    return json.loads(out.read_text())


def test_bench_layers_smoke(aa_run):
    # x^17 + x^3 + 1: candidates x^17 + x .. x^17 + x^3 + 1, the two
    # binomials skipped; the sieve drops the five with a root in F_2
    # (constant term 0, or an even number of terms), so only x^17 + x + 1,
    # x^17 + x^2 + 1 and x^17 + x^3 + 1 are tested.  The first is tested
    # before the search buys the point w of F_4 (w^2 = w + 1, where it
    # has a root): its step-2 gcd rejects it.  The other two have no
    # factor of degree <= 2 and skip the gcds of steps 1 and 2, and the
    # last is irreducible: 1 + 1 + 2 gcds (six with the step-2 gcds)
    (build,) = aa_run["builds"]
    assert (build["p"], build["m"]) == (2, 17)
    build = build["mk_field_ms"]
    assert "differ" not in build and len(build["ratio"]) == 3
    for side in ("parent", "change"):
        # one byte per digit, where x^17 + x^3 + 1 folds twice unreduced:
        # every digit stays at most 17 * 3^2 = 153 < 2^8
        assert build[side] == dict(build[side], irreducible_tests=3,
                                   gcds=4, digit_bytes=1, lazy=True,
                                   steps=["none", "none"])
        assert build[side]["ms"] > 0
    (fld,) = aa_run["fields"]
    assert (fld["p"], fld["m"]) == (3, 9)
    tuple_rows = ["mul", "sqr", "frobenius_1", "frobenius_m-1", "pow_N-1"]
    ops = fld["ops"]
    assert sorted(ops) == sorted(
        tuple_rows + [f"{row}_packed" for row in tuple_rows]
        + ["inv", "frobenius_m-1_cold", "frobenius_build", "phi_map_norm",
           "mul_interpreted", "mul_compiled", "reduce", "reduce_compiled"])
    assert not any("differ" in op for op in ops.values())
    for side in ("parent", "change"):
        # x^9 + 2x^3 + x^2 + 1 on one-byte digits: each of the two blocks
        # shrinks its digits to at most 2^4 - 1 + 15 * (2^4 mod 3) = 30 first
        assert fld["mk_field_ms"][side] == dict(
            fld["mk_field_ms"][side], digit_bytes=1, lazy=False,
            steps=["shrink", "shrink"])
        got = {name: op[side] for name, op in ops.items()}
        assert (got["mul"]["mults"], got["sqr"]["squarings"]) == (1, 1)
        assert got["frobenius_m-1"]["frobenius"] == 8
        # the first call on a fresh field is charged like any other; a
        # build of the composed matrix is charged nothing
        assert got["frobenius_m-1_cold"]["frobenius"] == 8
        assert got["frobenius_build"] == dict(
            got["frobenius_build"], mults=0, squarings=0, frobenius=0)
        assert got["inv"]["inversions"] == 1
        # a product's final reduction is no counted operation, and a
        # product reduced by either kernel directly none either
        for row in ("reduce", "reduce_compiled", "mul_interpreted",
                    "mul_compiled"):
            assert got[row] == dict(got[row], mults=0, squarings=0,
                                    frobenius=0, inversions=0), row
        assert all(op["us"] > 0 for op in got.values())
        for row in tuple_rows:
            # a packed call is charged exactly what the tuple call is
            packed = dict(got[f"{row}_packed"], us=None)
            assert packed == dict(got[row], us=None), row
    # 3^9 - 1 = 2 * 13 * 757: r = 2 ramifies, r = 5 is coprime with k = 4
    assert {row["path"]: row["r"] for row in fld["roots"]} == {
        "coprime_fast": 5, "naive_fallback": 2, "ramified_fast": 2}
    assert all(row[side]["path"] == row["path"] for row in fld["roots"]
               for side in ("parent", "change"))
    # every kind auto takes, with the same answers on both sides
    kinds = aa_run["rth_root"]
    assert len(kinds) == 8
    assert all(kind["parent"] == dict(kind["change"],
                                      pass_ms=kind["parent"]["pass_ms"])
               and kind["parent"]["pass_ms"] > 0 for kind in kinds)


def test_bench_layers_amm_rows(aa_run):
    (row,) = aa_run["amm"]
    assert (row["p"], row["m"], row["r"]) == (13, 3, 2)
    for side in ("parent", "change"):
        assert row["amm_context_us"][side]["us"] > 0
        # 4 | 13 - 1 and 3 is odd: auto descends to F_13 through the
        # norm, with one Frobenius map, and forced amm stays plain
        assert row["plan_us"][side]["us"] > 0
        assert row["plan_us"][side]["descent"] is True
        for verdict in ("residue", "non_residue"):
            auto = row[f"{verdict}_auto"][side]
            forced = row[f"{verdict}_amm"][side]
            assert auto["path"] == forced["path"] == "amm"
            assert auto["frobenius"] > 0 and forced["frobenius"] == 0
            assert auto["us"] > 0 and forced["us"] > 0


def test_bench_layers_rows_alternate_sides():
    # the side that goes first swaps each repeat; facts that differ
    # between the sides are kept per side and marked
    row = bench_layers().__globals__["row"]
    calls = []
    samplers = [lambda: calls.append("parent") or 1e-6,
                lambda: calls.append("change") or 2e-6]
    got = row(samplers, [{"mults": 1}, {"mults": 2}], 4)
    assert calls == ["parent", "change", "change", "parent"] * 2
    assert got == {"parent": {"us": 1.0, "mults": 1},
                   "change": {"us": 2.0, "mults": 2},
                   "ratio": [2.0, 2.0, 2.0], "differ": True}
    assert "differ" not in row(samplers, [{"mults": 1}, {"mults": 1}], 1)


def test_bench_layers_stops_on_a_different_answer(tmp_path, monkeypatch):
    # another path tag on the change side for r = 5 stops the run before
    # anything is timed, naming the kind
    main = bench_layers()
    load = main.__globals__["load"]

    def load_with_another_tag(tree, name, tmp):
        pkg = load(tree, name, tmp)
        if name == "rf_change":
            real = pkg.rth_root

            def rth_root(fld, delta, r, *args, **kwargs):
                out = real(fld, delta, r, *args, **kwargs)
                return out._replace(path_tag="amm") if r == 5 else out
            monkeypatch.setattr(pkg, "rth_root", rth_root)
        return pkg

    monkeypatch.setitem(main.__globals__, "load", load_with_another_tag)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit, match=r"F_\{3\^97\}, r=5, element 0"):
        main([str(ROOT), str(ROOT), "--repeats", "1", "--out", str(out)])
    assert not out.exists()
    assert not any(name.startswith("rf_") for name in sys.modules)


def test_bench_layers_keeps_each_sides_counters(tmp_path, monkeypatch):
    # counters that move on purpose do not stop the run: each side's sum
    # goes in its half of the kind's row
    main = bench_layers()
    prepare, load = main.__globals__["prepare"], main.__globals__["load"]
    monkeypatch.syspath_prepend(str(tmp_path))
    pkgs = [load(ROOT, name, tmp_path) for name in ("rf_parent", "rf_change")]
    try:
        real = pkgs[1].rth_root

        def rth_root(fld, delta, r, *args, **kwargs):
            out = real(fld, delta, r, *args, **kwargs)
            out.counters.mults += 1
            return out
        monkeypatch.setattr(pkgs[1], "rth_root", rth_root)
        _, (parent, change) = prepare(pkgs, (3, 9, 5))
    finally:
        for name in [name for name in sys.modules if name.startswith("rf_")]:
            del sys.modules[name]
    assert change == {**parent, "mults": parent["mults"] + 30}


def test_bench_layers_timeout(tmp_path, monkeypatch):
    # a build past the deadline records "timeout" instead of hanging
    main = bench_layers()
    monkeypatch.setitem(main.__globals__, "TIMEOUT_S", 0.001)
    out = tmp_path / "bench.json"
    start = time.monotonic()
    assert main([str(ROOT), str(ROOT), "--field", "3,163", "--build", "3,163",
                 "--repeats", "1", "--out", str(out)]) == 0
    assert time.monotonic() - start < 5
    run = json.loads(out.read_text())
    assert run["fields"] == [{"p": 3, "m": 163, "mk_field_ms": "timeout"}]
    assert run["builds"] == [{"p": 3, "m": 163, "mk_field_ms": "timeout"}]
    # a timed row past it keeps each side's facts
    for kind in run["rth_root"]:
        assert kind["ratio"] == "timeout"
        assert kind["parent"]["pass_ms"] == kind["change"]["pass_ms"] == \
            "timeout"
        assert kind["parent"]["mults"] > 0


def test_same_answers_diff_counts_calls(tmp_path, capsys):
    """--diff fails when one record holds a call more than the other,
    whichever side it is on, and when a root differs."""
    script = Path(__file__).parents[1] / "scripts" / "same_answers.py"
    main = runpy.run_path(str(script), run_name="same_answers")["main"]
    lines = [json.dumps({"call": "rth_root", "p": 13, "m": 1, "r": 2,
                         "path": "auto", "delta": d, "status": "root_found",
                         "tag": "ramified_fast", "root": d,
                         "counters": [d, 1, 0, 0]}) for d in (1, 3, 4)]
    short, full, other = (tmp_path / n for n in ("a", "b", "c"))
    short.write_text("\n".join(lines[:2]) + "\n")
    full.write_text("\n".join(lines) + "\n")
    other.write_text("\n".join(lines[:2] + [lines[2].replace(
        '"root": 4', '"root": 9')]) + "\n")
    assert main(["--diff", str(full), str(full)]) == 0
    assert main(["--diff", str(full), str(short)]) == 1
    assert main(["--diff", str(short), str(full)]) == 1
    assert main(["--diff", str(full), str(other)]) == 1
    assert "records hold different numbers of calls" in capsys.readouterr().out


def test_same_answers_diff_groups_answer_moves(tmp_path, capsys):
    """Answer moves are summed per call, path and the fields that moved,
    as counter moves are; the exit code stays 1."""
    script = Path(__file__).parents[1] / "scripts" / "same_answers.py"
    main = runpy.run_path(str(script), run_name="same_answers")["main"]

    def line(d, root, status="root_found", counters=(1, 1, 0, 0)):
        return json.dumps({"call": "rth_root", "p": 13, "m": 3, "r": 2,
                           "path": "auto", "delta": d, "status": status,
                           "tag": "amm", "root": root,
                           "counters": list(counters)})

    old, new = tmp_path / "old", tmp_path / "new"
    old.write_text("\n".join([line(1, 1), line(2, 5), line(3, 7)]) + "\n")
    new.write_text("\n".join([line(1, 2, counters=(2, 1, 0, 0)),
                              line(2, 6), line(3, None, "non_residue")])
                   + "\n")
    assert main(["--diff", str(old), str(new)]) == 1
    out = capsys.readouterr().out
    assert "3 answers differ; 0 calls moved counters or stderr" in out
    assert "      2  rth_root auto nonzero m>1 answer: root only" in out
    assert "      1  rth_root auto nonzero m>1 answer: status root" in out
