import importlib

from conftest import TREFOIL_GAUSS, TREFOIL_PD
from knotfish.cli import cli_main
from knotfish.diagram import parse_pd, to_pd_text
from knotfish.generators import torus_pd
from knotfish.jones import v2_v3
from knotfish.table import bundled_table_path


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


def test_invariants_runs_the_state_sum_once(capsys, monkeypatch):
    # the package re-exports the function jones, so fetch the module itself
    jones_module = importlib.import_module("knotfish.jones")
    bracket = jones_module.kauffman_bracket
    calls = []

    def counting_bracket(d, *args):
        calls.append(d.crossing_count)
        return bracket(d, *args)

    monkeypatch.setattr(jones_module, "kauffman_bracket", counting_bracket)
    code, out, _ = run(capsys, "invariants", to_pd_text(torus_pd((3, 5))))
    assert code == 0
    assert "v2: 8" in out and "v3: 20" in out
    assert calls == [10]


def test_invariants_garbage_is_input_error(capsys):
    code, _, err = run(capsys, "invariants", "no such thing")
    assert code == 1
    assert "error" in err


def test_invariants_invalid_pd_is_input_error(capsys):
    code, _, err = run(capsys, "invariants", "PD[X(1,4,2,5),X(3,6,4,1)]")
    assert code == 1
    assert "twice" in err


def test_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("VASSILIEV_CROSSING_CAP", "2")
    code, _, err = run(capsys, "invariants", TREFOIL_PD)
    assert code == 2
    assert "cap" in err
    monkeypatch.setenv("VASSILIEV_CROSSING_CAP", "not-a-number")
    code, _, err = run(capsys, "invariants", TREFOIL_PD)
    assert code == 1


def test_cap_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("VASSILIEV_CROSSING_CAP", "2")
    code, out, _ = run(capsys, "invariants", TREFOIL_PD, "--cap", "5")
    assert code == 0
    assert "v2: 1" in out


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


def test_table_audit_fails_records_over_the_cap(capsys):
    code, out, _ = run(capsys, "table", "bundled", "--maxima", "--audit",
                       "--cap", "8")
    assert code == 2
    assert "records: 9 computed, 4 failed" in out.splitlines()
    assert "no violations" not in out
    failed = [line.split()[1] for line in out.splitlines()
              if line.startswith("VIOLATION")]
    assert failed == ["9_1:", "9_2:", "10_1:", "10_124:"]
    assert "not computed: 9 crossings exceeds the state-sum cap of 8" in out


def test_table_csv(capsys, tmp_path):
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, "table", str(bundled_table_path()), "--csv", str(target))
    assert code == 0
    assert target.read_text().startswith("name,crossings,v2,v3")


def test_table_missing_file(capsys):
    code, _, err = run(capsys, "table", "/nonexistent/path.txt")
    assert code == 1


def test_plot_subcommand(capsys, tmp_path):
    target = tmp_path / "fish.svg"
    code, out, _ = run(capsys, "plot", "bundled", "--crossing", "7",
                       "--svg", str(target))
    assert code == 0
    assert target.exists()


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


def test_usage_error_is_exit_1(capsys):
    code, _, err = run(capsys, "no-such-command")
    assert code == 1
