import dataclasses
import json
import math

import numpy as np
import pytest

from dirmoment import chargroup, checks, cli, kernel, lfunc, spectra
from dirmoment.arith import phi_star
from dirmoment.lfunc import abc_values
from dirmoment.numerics import fmt_float
from dirmoment.spectra import compute_spectrum, fourth_moment

HEADER = ("q,phi_star,moment,main_term,ratio,b_moment,c_moment_primitive,"
          "E_measured,wall_ms")


def run(capsys, *argv):
    rc = cli.main(list(argv))
    return rc, capsys.readouterr().out


def test_moment_json_parses(capsys):
    rc, out = run(capsys, "moment", "--q", "15")
    assert rc == 0
    doc = json.loads(out)
    assert doc["q"] == 15
    assert doc["phi_star"] == 3
    assert doc["fourth_moment"] > 0
    assert doc["ratio"] == doc["fourth_moment"] / doc["main_term"]
    assert "wall_ms" not in doc


def test_moment_timings_flag(capsys):
    rc, out = run(capsys, "moment", "--q", "5", "--timings")
    doc = json.loads(out)
    assert rc == 0
    assert set(doc["wall_ms"]) >= {"kernel", "tables", "transform"}


def test_moment_timings_name_the_stages(capsys):
    # --timings names every stage of the Hurwitz route, and nothing else;
    # the default report carries no timings and no tail-table fields
    rc, out = run(capsys, "moment", "--q", "7", "--timings")
    assert rc == 0
    assert set(json.loads(out)["wall_ms"]) == {
        "group", "hurwitz", "kernel", "tables", "transform", "assemble"}
    rc, out = run(capsys, "moment", "--q", "7")
    doc = json.loads(out)
    assert "wall_ms" not in doc
    assert not {"c_moment_all", "cross_bound"} & set(doc)


def test_moment_without_primitive_characters_warns(capsys):
    # q = 6 has no primitive characters: zero moment, warning, exit 0
    rc = cli.main(["moment", "--q", "6"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert rc == 0
    assert doc["phi_star"] == 0
    assert doc["fourth_moment"] == 0
    assert doc["warning"] == "no primitive characters"
    assert "no primitive characters" in captured.err


def test_moment_over_the_modulus_cap_is_exit_2(capsys):
    # the group build's range check comes before the phi* = 0 report, so
    # 20000002 = 2 mod 4, with no primitive characters, is refused too
    for q in (20000001, 20000002):
        with pytest.raises(SystemExit) as e:
            cli.main(["moment", "--q", str(q)])
        assert e.value.code == 2
        cap = capsys.readouterr()
        assert cap.out == ""
        assert cap.err == (
            f"dirmoment: error: ValueError: modulus {q} exceeds the residue"
            f" table memory budget (q <= {chargroup._MAX_Q})\n")


def test_moment_nan_ratio_warns(capsys):
    # mod 1 the main term is 0 (log 1 = 0), so the ratio is nan: the
    # report is unchanged and stderr carries the scan's warning
    rc = cli.main(["moment", "--q", "1"])
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert rc == 0
    assert doc["ratio"] == "nan" and "warning" not in doc
    assert captured.err.splitlines() == [
        "warning: ratio is nan at q = 1: the main term is 0 (phi_star = 1)"]


def test_value_reports_oracle(capsys):
    rc, out = run(capsys, "value", "--q", "5", "--char", "1")
    doc = json.loads(out)
    assert rc == 0
    assert doc["primitive"] is True
    assert doc["conductor"] == 5
    l_sq = doc["l_oracle"]["re"] ** 2 + doc["l_oracle"]["im"] ** 2
    assert abs(l_sq - doc["two_a"]) < 1e-10
    # the principal character is not primitive: no oracle fields
    rc, out = run(capsys, "value", "--q", "5", "--char", "0")
    assert rc == 0 and "l_oracle" not in json.loads(out)
    with pytest.raises(SystemExit) as e:  # the option is gone
        cli.main(["value", "--q", "5", "--char", "1", "--no-oracle"])
    assert e.value.code == 2


def test_value_rejects_bad_index(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["value", "--q", "5", "--char", "7"])
    assert e.value.code == 2
    assert "--char" in capsys.readouterr().err


def test_parser_is_reused_without_carrying_state(monkeypatch, capsys):
    # main parses with the one parser built at import, never a new one;
    # runs, usage errors and a flag in between leave nothing behind, so
    # the same moment call prints the same bytes before and after
    def refuse():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "_build_parser", refuse)
    outs = []
    for argv, code in ((["moment", "--q", "1009"], 0),
                       (["scan", "--qmin", "0"], 2),
                       (["value", "--q", "13", "--char", "99"], 2),
                       (["moment", "--q", "1009", "--timings"], 0),
                       (["moment", "--q", "1009"], 0)):
        if code:
            with pytest.raises(SystemExit) as e:
                cli.main(argv)
            assert e.value.code == code, argv
        else:
            assert cli.main(argv) == code, argv
        outs.append(capsys.readouterr().out)
    assert "wall_ms" in json.loads(outs[3])
    assert outs[0] and outs[4] == outs[0]


def test_usage_error_is_exit_2(kernel_config, capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["moment"])  # missing --q
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        cli.main(["no-such-command"])
    assert e.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        cli.main(["scan", "--qmin", "5", "--qmax", "3"])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "--qmin" in err and "--qmax" in err
    # an empty sweep range is a usage error, not a pass with zero checks
    for argv, flag in ((["verify-bounds", "--qmax", "0", "--only", "lemma4",
                         "tail"], "--qmax"),
                       (["verify-identities", "--qmax-pairs", "-3"],
                        "--qmax-pairs"),
                       (["verify-identities", "--qmax-lemma1", "0"],
                        "--qmax-lemma1"),
                       (["verify-identities", "--qmax-gauss", "0"],
                        "--qmax-gauss")):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 2
        cap = capsys.readouterr()
        assert flag in cap.err and cap.out == ""
    # rejected input and a failed kernel step check: message, no traceback;
    # the runtime check fails on tables built at step h = 2.0
    for argv, exc in ((["moment", "--q", "20000000"], "ValueError"),
                      (["moment", "--q", "101"], "KernelAccuracyError")):
        with kernel_config(h=2.0), pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"dirmoment: error: {exc}: ")


def test_failed_hurwitz_fit_is_exit_2(monkeypatch, capsys):
    # the Hurwitz interpolant's fit shares the kernel's guard: a degree
    # too low for its tolerance is a message and exit 2, not a traceback
    lfunc._hurwitz_cheb.cache_clear()
    monkeypatch.setattr(lfunc, "_HURWITZ_DEGREE", 12)
    with pytest.raises(SystemExit) as e:
        cli.main(["moment", "--q", "101"])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("dirmoment: error: KernelAccuracyError: ")
    assert "trailing coefficients" in err


def test_value_cost_cap_refuses_before_any_table(monkeypatch, capsys):
    # the tail of q = 1000003 is over the pair cap: exit 2 before the
    # kernel table, the character vector or the head pairs are built
    def no_table(*args, **kwargs):
        pytest.fail("kernel_weights called past the cost cap")
    monkeypatch.setattr(lfunc, "kernel_weights", no_table)
    with pytest.raises(SystemExit) as e:
        cli.main(["value", "--q", "1000003", "--char", "1"])
    assert e.value.code == 2
    assert "naive pair enumeration" in capsys.readouterr().err


def test_tail_cost_cap_refuses_before_any_table(monkeypatch):
    # the C table of q = 2500009 is over the table-build cap:
    # compute_spectrum raises before the kernel table or the group is built
    def no_table(*args, **kwargs):
        pytest.fail("table or group built past the cost cap")
    for name in ("kernel_weights", "build_group"):
        monkeypatch.setattr(spectra, name, no_table)
    with pytest.raises(ValueError, match="over the cost cap"):
        compute_spectrum(2500009)


def test_tail_sweep_reports_a_breach(monkeypatch):
    # C scaled by 2000 puts sum C^2 at 4e6 times its value, over the
    # envelope at every q (the worst ratio is 6.7e-4): each check fails
    # and its record names the sum c_moment_all
    def scaled(q):
        spec = compute_spectrum(q)
        spec.c_values *= 2000.0
        return spec
    monkeypatch.setattr(checks, "compute_spectrum", scaled)
    r = checks.tail(20)
    assert r.checks == 18 and len(r.failures) == 18 and r.worst > 1.0
    for f in r.failures:
        assert f["check"] == "tail_moment"
        assert f["c_moment_all"] > f["envelope"]


def test_oracle_sweep_reports_a_breach(monkeypatch):
    # A scaled by 1 + 1e-7 moves 2A by 1e-7 of itself: inside the relative
    # 1e-6 of earlier versions, but over the kernel-eps bound (under 3e-8
    # at every q of the sweep) at 30 of the 41 characters
    def scaled(G, chi, *, weights):
        cv = abc_values(G, chi, weights=weights)
        return dataclasses.replace(cv, a_value=cv.a_value * (1.0 + 1e-7))
    monkeypatch.setattr(checks, "abc_values", scaled)
    r = checks.oracle_equation()
    assert r.checks == 41 and len(r.failures) == 30 and r.worst > 1.0
    for f in r.failures:
        assert f["check"] == "oracle_equation" and f["gap"] > f["bound"]


def test_scan_over_the_modulus_cap_is_exit_2_before_any_row(monkeypatch,
                                                            capsys):
    # --qmax over the group's range: exit 2 with build_group's message,
    # before the kernel table of the first row (q = 3) is built
    def no_table(*args, **kwargs):
        pytest.fail("kernel_weights called past the modulus cap")
    monkeypatch.setattr(cli, "kernel_weights", no_table)
    with pytest.raises(SystemExit) as e:
        cli.main(["scan", "--qmin", "3", "--qmax", "20000001"])
    assert e.value.code == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == (
        "dirmoment: error: ValueError: modulus 20000001 exceeds the residue"
        f" table memory budget (q <= {chargroup._MAX_Q})\n")


def test_scan_rows_read_a_head_only_table(monkeypatch, capsys):
    # every row with a primitive character builds the kernel table up to
    # z_floor only, a row with none (2990, 2994, 2998) builds no table,
    # and no row builds the smoothed tail table; each module's binding is
    # wrapped, so a table built through spectra or lfunc fails the test too
    calls = []
    real = lfunc.kernel_weights

    def head_only(q, **kwargs):
        assert kwargs == {"head_only": True}, (q, kwargs)
        calls.append(q)
        return real(q, **kwargs)

    def no_tail(*args, **kwargs):
        pytest.fail("scan built the tail table")
    for mod in (cli, spectra, lfunc):
        monkeypatch.setattr(mod, "kernel_weights", head_only)
    for mod in (cli, spectra):
        monkeypatch.setattr(mod, "compute_spectrum", no_tail, raising=False)
    assert cli.main(["scan", "--qmin", "2990", "--qmax", "2999"]) == 0
    assert calls == [q for q in range(2990, 3000) if phi_star(q)]
    assert len(capsys.readouterr().out.splitlines()) == 11


def test_scan_rows_without_primitive_characters_build_nothing(monkeypatch,
                                                              capsys):
    # a phi* = 0 row (q = 2 mod 4) prints the report of zeros and E = 0
    # without the kernel table or the diagonal term M; the rows around it
    # still reach both
    seen = []

    def only_primitive(real):
        def wrapped(q, **kwargs):
            assert phi_star(q), f"q = {q} has no primitive character"
            seen.append(q)
            return real(q, **kwargs)
        return wrapped
    for name in ("kernel_weights", "m_reparametrized"):
        monkeypatch.setattr(cli, name, only_primitive(getattr(cli, name)))
    assert cli.main(["scan", "--qmin", "5", "--qmax", "7"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == HEADER and rows[2] == "6,0,0,0,nan,0,0,0,0"
    assert cli.main(["scan", "--qmin", "2994", "--qmax", "2994"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        HEADER, "2994,0,0,0,nan,0,0,0,0"]
    assert seen == [5, 5, 7, 7]


def test_scan_warns_on_nan_ratio(capsys):
    # q = 6 has no primitive characters, so its ratio is nan: one warning
    # on stderr for that row, and the CSV row as before
    rc = cli.main(["scan", "--qmin", "5", "--qmax", "7"])
    cap = capsys.readouterr()
    assert rc == 0
    rows = cap.out.splitlines()
    assert rows[0] == HEADER and len(rows) == 4
    assert rows[2].startswith("6,0,0,0,nan,0,")
    assert cap.err.splitlines() == [
        "warning: ratio is nan at q = 6: the main term is 0 (phi_star = 0)"]


def test_scan_deterministic_across_threads(tmp_path, capsys):
    # two reruns of the same scan produce byte-identical CSV
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    assert cli.main(["scan", "--qmin", "3", "--qmax", "10",
                     "--out", str(f1)]) == 0
    assert cli.main(["scan", "--qmin", "3", "--qmax", "10",
                     "--out", str(f2)]) == 0
    b1 = f1.read_bytes()
    assert b1 == f2.read_bytes()
    lines = b1.decode().strip().split("\n")
    assert lines[0] == HEADER
    assert len(lines) == 9
    # wall_ms column is pinned to zero unless --timings is given
    assert all(ln.rsplit(",", 1)[1] == "0" for ln in lines[1:])


@pytest.mark.parametrize("q", [1009, 2999, 10007])
def test_moment_and_scan_print_the_same_digits(q, tmp_path, capsys):
    # both commands read a head-only kernel table and one moment report,
    # so the shared columns print alike
    rc, out = run(capsys, "moment", "--q", str(q))
    assert rc == 0
    doc = json.loads(out)
    f = tmp_path / "s.csv"
    assert cli.main(["scan", "--qmin", str(q), "--qmax", str(q),
                     "--out", str(f)]) == 0
    row = dict(zip(HEADER.split(","), f.read_text().split("\n")[1].split(",")))
    assert row["phi_star"] == str(doc["phi_star"])
    for col, key in (("moment", "fourth_moment"), ("main_term", "main_term"),
                     ("ratio", "ratio"), ("b_moment", "b_moment"),
                     ("c_moment_primitive", "c_moment_primitive")):
        assert row[col] == fmt_float(doc[key]), col


def test_scan_row_values_roundtrip(tmp_path):
    f = tmp_path / "s.csv"
    cli.main(["scan", "--qmin", "5", "--qmax", "5", "--out", str(f)])
    row = f.read_text().strip().split("\n")[1].split(",")
    assert row[0] == "5" and row[1] == "3"
    moment, main = float(row[2]), float(row[3])
    assert float(row[4]) == moment / main
    # E_measured = b_moment - diagonal: finite and small at q = 5
    assert abs(float(row[7])) < 1.0
    # c_moment_primitive sums C^2 over the primitive characters mod q
    assert row[6] == fmt_float(fourth_moment(5).c_moment_primitive)


def test_kernel_table_csv(tmp_path):
    f = tmp_path / "k.csv"
    rc = cli.main(["kernel-table", "--xmin", "0.01", "--xmax", "4",
                   "--points", "7", "--out", str(f)])
    assert rc == 0
    lines = f.read_text().strip().split("\n")
    assert lines[0] == "x,W0,W1"
    assert len(lines) == 8
    for ln in lines[1:]:
        x, w0, w1 = (float(t) for t in ln.split(","))
        assert 0 < w0 < w1 <= 1.0001


def test_kernel_table_linear_grid(capsys):
    # --linear: the x column is np.linspace(xmin, xmax, points) in %.17g,
    # and each row's W0, W1 are the two rows of one w_eval_batch call at
    # that x, bit for bit
    rc, out = run(capsys, "kernel-table", "--xmin", "0.5", "--xmax", "3",
                  "--points", "6", "--linear")
    assert rc == 0
    header, *rows = out.strip().split("\n")
    assert header == "x,W0,W1"
    xs = np.linspace(0.5, 3.0, 6)
    assert [r.split(",")[0] for r in rows] == [format(x, ".17g") for x in xs]
    got = np.array([[float(t) for t in r.split(",")[1:]] for r in rows])
    want = kernel.w_eval_batch(np.empty((2, xs.size)), xs)
    assert np.array_equal(got.T, want)


def test_kernel_table_rejects_bad_grid():
    with pytest.raises(SystemExit) as e:
        cli.main(["kernel-table", "--xmin", "4", "--xmax", "2"])
    assert e.value.code == 2


def test_verify_identities_passes(tmp_path, capsys):
    f = tmp_path / "v.json"
    rc = cli.main(["verify-identities", "--qmax-lemma1", "20",
                   "--qmax-pairs", "10", "--qmax-gauss", "20",
                   "--out", str(f)])
    assert rc == 0
    doc = json.loads(f.read_text())
    assert doc["failures"] == []
    assert doc["checks"] > 500


def test_verify_identities_covers_all_families(tmp_path, capsys):
    f = tmp_path / "vi.json"
    rc = cli.main(["verify-identities", "--qmax-lemma1", "8",
                   "--qmax-pairs", "6", "--qmax-gauss", "8",
                   "--out", str(f)])
    out = capsys.readouterr().out
    assert rc == 0
    for family in ("primitive-sum identity", "parity pair-sum identity",
                   "gauss-sum modulus", "central-value oracle equation",
                   "diagonal reorganization equality"):
        assert family in out


def test_verify_bounds_passes(tmp_path, capsys):
    f = tmp_path / "b.json"
    rc = cli.main(["verify-bounds", "--qmax", "8", "--out", str(f)])
    assert rc == 0
    doc = json.loads(f.read_text())
    assert doc["failures"] == []


def test_verify_bounds_only_selector(tmp_path, capsys):
    f = tmp_path / "b3.json"
    rc = cli.main(["verify-bounds", "--only", "lemma3", "--out", str(f)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "quadruple-count boxes" in out
    assert "harmonic-sum" not in out
    assert json.loads(f.read_text())["checks"] == 5


def test_float_formatting_roundtrips():
    for v in (0.1, 1 / 3, math.pi, 1e-300, -2.5e17, 0.0):
        assert float(fmt_float(v)) == v
    assert fmt_float(float("nan")) == "nan"
    assert fmt_float(float("inf")) == "inf"
