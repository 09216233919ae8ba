from importlib import resources

import pytest

from conftest import TREFOIL_GAUSS, TREFOIL_PD, count_bracket_calls
from jones_oracle import pair_from_jones
from knotfish import cli
from knotfish.cli import cli_main
from knotfish.diagram import (connect_sum, mirror, parse_gauss, parse_pd,
                              to_gauss, to_pd_text, writhe)
from knotfish.generators import torus_pd, whitehead_pd
from knotfish.jones import arf, jones, v2_v3
from knotfish.table import BUNDLED_TABLE
from knotfish.torus import torus_v2v3


def run(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_trefoil(capsys):
    code, out, _ = run(capsys, "invariants", TREFOIL_PD)
    assert code == 0
    assert "v2: 1" in out and "v3: 1" in out
    assert "jones: -q^4 + q^3 + q" in out


def test_invariants_empty_pd(capsys):
    code, out, _ = run(capsys, "invariants", "PD[]")
    assert code == 0
    assert "v2: 0" in out and "v3: 0" in out


def test_invariants_gauss(capsys):
    code, out, _ = run(capsys, "invariants", TREFOIL_GAUSS)
    assert code == 0
    assert "v2: 1" in out


def test_invariants_from_file(capsys, tmp_path):
    path = tmp_path / "knot.pd"
    path.write_text(TREFOIL_PD + "\n")
    code, out, _ = run(capsys, "invariants", str(path))
    assert code == 0
    assert "v3: 1" in out


@pytest.mark.parametrize("name", ["Output.pd", "Under.pd"])
def test_invariants_from_file_named_like_a_gauss_code(capsys, tmp_path,
                                                      monkeypatch, name):
    (tmp_path / name).write_text(TREFOIL_PD + "\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "invariants", name)
    assert (code, err) == (0, "")
    assert "jones: -q^4 + q^3 + q" in out


def test_invariants_reads_a_file_as_a_code_only(capsys, tmp_path,
                                                monkeypatch):
    # A file whose text is a path, its own included, is not followed.
    (tmp_path / "loop.pd").write_text("loop.pd\n")
    (tmp_path / "knot.pd").write_text(TREFOIL_PD + "\n")
    (tmp_path / "link.pd").write_text("knot.pd\n")
    monkeypatch.chdir(tmp_path)
    for name, text in [("loop.pd", "loop.pd"), ("link.pd", "knot.pd")]:
        code, out, err = run(capsys, "invariants", name)
        assert (code, out) == (1, "")
        assert err == f"error: unexpected token at position 0: {text!r}\n"


def test_invariants_runs_the_state_sum_once(capsys, monkeypatch):
    calls = count_bracket_calls(monkeypatch)
    code, out, _ = run(capsys, "invariants", to_pd_text(torus_pd((3, 5))))
    assert code == 0
    assert "v2: 8" in out and "v3: 20" in out
    assert calls == [10]


@pytest.mark.parametrize("code", [
    TREFOIL_PD,
    TREFOIL_GAUSS,
    "PD[]",
    to_pd_text(mirror(torus_pd((2, 5)))),
    to_gauss(connect_sum(torus_pd((2, 3)), whitehead_pd(-1))).text(),
    to_pd_text(whitehead_pd(-2)),
    to_gauss(whitehead_pd(1)).text(),
    to_pd_text(whitehead_pd(3)),
], ids=["trefoil-pd", "trefoil-gauss", "empty-pd", "mirror-T25",
        "sum-gauss", "Wh-2", "Wh1-gauss", "Wh3"])
def test_invariants_stdout_is_pinned(capsys, code):
    """The whole stdout, line by line, built from the library; the printed
    (v2, v3) also equal the Jones derivatives of the printed J."""
    d = parse_pd(code) if code.startswith("PD[") else parse_gauss(code)
    j, pair = jones(d), v2_v3(d)
    assert pair == pair_from_jones(j)
    assert run(capsys, "invariants", code) == (0, (
        f"crossings: {d.crossing_count}\n"
        f"writhe: {writhe(d)}\n"
        f"jones: {j}\n"
        f"v2: {pair.v2}\n"
        f"v3: {pair.v3}\n"
        f"arf: {arf(pair)}\n"), "")


def test_invariants_garbage_is_input_error(capsys):
    code, _, err = run(capsys, "invariants", "no such thing")
    assert code == 1
    assert "error" in err


def test_invariants_invalid_pd_is_input_error(capsys):
    code, _, err = run(capsys, "invariants", "PD[X(1,4,2,5),X(3,6,4,1)]")
    assert code == 1
    assert "twice" in err


def test_cap_flag(capsys):
    code, _, err = run(capsys, "invariants", TREFOIL_PD, "--cap", "2")
    assert code == 2
    assert err == ("computation error: 3 crossings exceeds the state-sum cap "
                   "of 2; raise the cap to proceed (2^c states)\n")


def test_cap_flag_must_be_an_integer(capsys):
    code, _, err = run(capsys, "invariants", TREFOIL_PD, "--cap", "x")
    assert code == 1
    assert "invalid int value" in err


def test_table_default_listing(capsys):
    code, out, _ = run(capsys, "table", "bundled")
    assert code == 0
    assert "3_1\t3\t1\t1" in out
    assert len(out.strip().splitlines()) == 13


def test_table_maxima_and_audit(capsys):
    code, out, _ = run(capsys, "table", "bundled", "--maxima", "--audit")
    assert code == 0
    assert "no violations" in out
    assert "4_1 (even)" in out
    # printed-vs-formula discrepancy notes surface
    assert out.count("note:") == 3


def test_table_csv(capsys, tmp_path):
    source = tmp_path / BUNDLED_TABLE
    source.write_text((resources.files("knotfish.data") / BUNDLED_TABLE)
                      .read_text("utf-8"), encoding="utf-8")
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, "table", str(source), "--csv", str(target))
    assert code == 0
    assert target.read_text().startswith("name,crossings,v2,v3")
    bundled = tmp_path / "bundled.csv"
    assert run(capsys, "table", "bundled", "--csv", str(bundled))[0] == 0
    assert target.read_bytes() == bundled.read_bytes()


def test_table_missing_file(capsys):
    code, _, err = run(capsys, "table", "/nonexistent/path.txt")
    assert code == 1


def test_plot_subcommand(capsys, tmp_path):
    target = tmp_path / "fish.svg"
    code, out, _ = run(capsys, "plot", "bundled", "--crossing", "7",
                       "--svg", str(target))
    assert code == 0
    assert target.exists()


def test_table_and_plot_above_twenty_crossings(capsys, tmp_path):
    """Tables take (v2, v3) from the Gauss formulas, so no crossing cap
    applies to them, and ``table`` and ``plot`` have no --cap flag."""
    table = tmp_path / "big.txt"
    table.write_text(f"21_1\t{to_pd_text(torus_pd((2, 21)))}\n"
                     f"24_1\t{to_pd_text(torus_pd((5, 6)))}\n", encoding="utf-8")
    code, out, err = run(capsys, "table", str(table), "--maxima", "--audit")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "records: 2 computed"
    assert "bound audit: no violations" in lines
    assert not any(line.startswith("VIOLATION") for line in lines)
    maxima = [tuple(int(x) for x in line.split()[:3]) for line in lines
              if line[:2] in ("21", "24")]
    assert maxima == [(21, *torus_v2v3((2, 21))), (24, *torus_v2v3((5, 6)))]

    target = tmp_path / "fish24.svg"
    code, out, err = run(capsys, "plot", str(table), "--crossing", "24",
                         "--svg", str(target))
    assert (code, err) == (0, "")
    assert target.read_text().count("<circle") == 2

    code, _, err = run(capsys, "table", "bundled", "--cap", "8")
    assert code == 1
    assert "--cap" in err


def test_torus_report(capsys):
    code, out, _ = run(capsys, "torus", "2", "7", "--report")
    assert code == 0
    assert "(v2,v3) = (6, 14)" in out
    assert "u = 3" in out and "c = 7" in out and "rho = 14" in out
    assert "FAIL" not in out


def test_torus_plain_and_unknot(capsys):
    code, out, _ = run(capsys, "torus", "2", "3")
    assert code == 0 and "(1, 1)" in out
    code, out, _ = run(capsys, "torus", "2", "1")
    assert code == 0 and "unknot" in out


def test_torus_rejects_non_coprime(capsys):
    code, _, err = run(capsys, "torus", "4", "6")
    assert code == 1
    assert "coprime" in err


def test_pseudo(capsys):
    code, out, _ = run(capsys, "pseudo", "1", "1")
    assert code == 0
    assert "u~ = 1" in out and "c~ = 3" in out


def test_pseudo_degenerate_is_computation_error(capsys):
    code, _, err = run(capsys, "pseudo", "0", "0")
    assert code == 2


def test_generate_torus(capsys):
    code, out, _ = run(capsys, "generate", "torus", "2", "3")
    assert code == 0
    d = parse_pd(out.strip())
    assert tuple(v2_v3(d)) == (1, 1)


def test_generate_whitehead(capsys):
    code, out, _ = run(capsys, "generate", "whitehead", "-1")
    assert code == 0
    d = parse_pd(out.strip())
    assert tuple(v2_v3(d)) == (-1, 0)


def test_generate_torus_needs_two_args(capsys):
    code, _, err = run(capsys, "generate", "torus", "2")
    assert code == 1


def test_curves(capsys, tmp_path):
    target = tmp_path / "curves.svg"
    code, out, _ = run(capsys, "curves", "--unknotting", "1..9",
                       "--crossing", "3,5,7,9,11,13,15,17", "--svg", str(target))
    assert code == 0
    assert target.exists()
    assert target.read_text().count("<path") == 2 * (9 + 8)


def test_curves_range_syntax(capsys, tmp_path):
    code, _, err = run(capsys, "curves", "--unknotting", "9..1",
                       "--svg", str(tmp_path / "x.svg"))
    assert code == 1
    code, out, _ = run(capsys, "curves", "--unknotting", "1..9",
                       "--crossing", "3,5..17", "--svg", str(tmp_path / "y.svg"))
    assert code == 0
    assert (tmp_path / "y.svg").exists()
    # An empty list item is skipped.
    for spec, name in [("1,,2", "a.svg"), ("1,2", "b.svg")]:
        assert run(capsys, "curves", "--unknotting", spec,
                   "--svg", str(tmp_path / name))[0] == 0
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()


@pytest.mark.parametrize("flag, value", [
    ("--unknotting", 10 ** 100), ("--unknotting", 10 ** 160), ("--crossing", 10 ** 400)])
def test_curves_beyond_the_float_range_are_a_computation_error(capsys, tmp_path,
                                                               flag, value):
    """A curve whose samples overflow a float fails before its lattice
    points are enumerated, and writes no file."""
    target = tmp_path / "curves.svg"
    mode = flag[2:]
    assert run(capsys, "curves", flag, str(value), "--svg", str(target)) == (
        2, "", f"computation error: {mode} curve samples do not fit in a float\n")
    assert not target.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--crossing", 10 ** 20,
     "c = 100000000000000000000 is above the limit c <= 1000000000000"),
    ("--unknotting", 10 ** 70,
     f"u = {10 ** 70} is above the limit u <= 500000000000")])
def test_curves_above_the_lattice_search_limit_are_an_input_error(
        capsys, tmp_path, flag, value, message):
    """A curve that fits in a float, but whose torus knots the lattice
    search would take hours or forever to list, is refused after its
    samples are drawn, and writes no file."""
    target = tmp_path / "curves.svg"
    assert run(capsys, "curves", flag, str(value), "--svg", str(target)) == (
        1, "", f"error: torus-knot search for {message}\n")
    assert not target.exists()


T25_ROW = f"3_1\t{to_pd_text(torus_pd((2, 5)))}\n"


@pytest.mark.parametrize("argv, table, expected", [
    (["table", "F", "--audit"], T25_ROW, (2, (
        "records: 1 computed\n"
        "VIOLATION 3_1: |v2| = 3 > c(c-1)/4 = 3/2\n"
        "VIOLATION 3_1: |v3| = 5 > c(c-1)(c-2)/4 = 3/2\n"
        "VIOLATION 3_1: v2 = 3 > c^2/8 = 9/8\n"), "")),
    (["table", "F"], f"3_1 {TREFOIL_PD}\n",
     (1, "", "error: F:1: expected 'name<TAB>PD[...]'\n")),
    (["pseudo", "2", "3"], None, (0, "u~ = 1.39445\nc~ = 3.39445\n", "")),
    (["generate", "whitehead", "1", "2"], None,
     (1, "", "error: whitehead takes a single index\n")),
    (["pseudo", "7", str(10 ** 20)], None, (0, "u~ = 4.9e-19\nc~ = 9.8e-19\n", "")),
    (["pseudo", "1", str(10 ** 400)], None, (0, "u~ = 0\nc~ = 0\n", "")),
    (["pseudo", "--", str(-10 ** 700), "0"], None,
     (2, "", "computation error: recovered value too large for a float\n")),
    (["invariants", "no-such-file"], None,
     (1, "", "error: cannot interpret 'no-such-file': not a PD code, "
             "Gauss code, or readable file\n")),
    (["generate", "torus", "3"], None, (1, "", "error: generate torus needs p and q\n")),
], ids=["audit-violations", "row-without-tab", "pseudo-float", "whitehead-two-args",
        "pseudo-tiny", "pseudo-underflow", "pseudo-overflow", "unreadable-path",
        "torus-without-q"])
def test_cli_run_is_pinned(capsys, tmp_path, monkeypatch, argv, table, expected):
    """Exit code, stdout and stderr of one run, with any table in file F."""
    if table is not None:
        (tmp_path / "F").write_text(table, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv) == expected


def test_usage_error_is_exit_1(capsys):
    code, _, err = run(capsys, "no-such-command")
    assert code == 1


TREFOIL_ROW = "3_1\t" + TREFOIL_PD + "\n"
LONG = "1" * 5000       # more digits than int() converts


@pytest.mark.parametrize("argv, files", [
    (["invariants", "{knot}"], {"knot": TREFOIL_PD.encode() + b"\xff\n"}),
    (["table", "{table}"], {"table": TREFOIL_ROW.encode() + b"\xe9\n"}),
    (["table", "{table}"], {"table": ("\u00b2_1\t" + TREFOIL_PD).encode()}),
    (["table", "{table}"], {"table": (LONG + "_1\t" + TREFOIL_PD).encode()}),
    (["invariants", f"PD[X({LONG},4,2,5)]"], {}),
    (["invariants", f"O{LONG}+U{LONG}+"], {}),
    (["curves", "--unknotting", "x", "--svg", "{svg}"], {}),
    (["curves", "--crossing", "3,1..x", "--svg", "{svg}"], {}),
], ids=["code-not-utf8", "table-not-utf8", "table-superscript-name",
        "table-long-name", "pd-long-label", "gauss-long-id",
        "unknotting-not-int", "crossing-range-not-int"])
def test_bad_user_input_is_input_error(capsys, tmp_path, argv, files):
    paths = {"svg": tmp_path / "out.svg"}
    for key, data in files.items():
        paths[key] = tmp_path / key
        paths[key].write_bytes(data)
    code, _, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 1
    assert err.startswith("error: ")
    assert not (tmp_path / "out.svg").exists()


def test_internal_value_error_is_not_an_input_error(capsys, monkeypatch):
    def broken(pair):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "pseudo_invariants", broken)
    with pytest.raises(ValueError, match="internal fault"):
        cli_main(["pseudo", "1", "1"])


def test_invariants_reads_a_file_with_a_bom(capsys, tmp_path):
    path = tmp_path / "bom.pd"
    path.write_bytes(b"\xef\xbb\xbf" + TREFOIL_PD.encode() + b"\n")
    code, out, err = run(capsys, "invariants", str(path))
    assert (code, err) == (0, "")
    assert "jones: -q^4 + q^3 + q" in out


def test_plot_rejects_a_control_character_in_a_name(capsys, tmp_path):
    table = tmp_path / "table.txt"
    table.write_text("3_1\x01a\t" + TREFOIL_PD + "\n", encoding="utf-8")
    svg = tmp_path / "out.svg"
    code, _, err = run(capsys, "plot", str(table), "--crossing", "3", "--svg", str(svg))
    assert code == 1
    assert err.startswith("error: ") and "table.txt:1: " in err
    assert not svg.exists()


def test_torus_report_prints_the_report_checks(capsys, monkeypatch):
    """The printed checklist is the report's own; one failed check turns
    its line to FAIL and the exit code to 2."""
    from knotfish import torus
    code, out, _ = run(capsys, "torus", "2", "7", "--report")
    lines = [line for line in out.splitlines() if line.startswith("  [")]
    assert (code, lines) == (0, [
        "  [pass] cubic bounds",
        "  [pass] unknotting bounds + corollary",
        "  [pass] crossing bounds + corollary (derived constants)",
        "  [pass] crossing quartic",
        "  [pass] pseudo-invariants coincide",
    ])
    monkeypatch.setattr(torus, "check_crossing_quartic", lambda t: False)
    code, out, _ = run(capsys, "torus", "2", "7", "--report")
    assert code == 2
    assert "  [FAIL] crossing quartic\n" in out
    lines = [line for line in out.splitlines() if line.startswith("  [")]
    assert lines == [f"  [{'pass' if ok else 'FAIL'}] {label}"
                     for label, ok in torus.torus_report((2, 7)).checks]
    assert [ok for _, ok in torus.torus_report((2, 7)).checks] == [
        True, True, True, False, True]
