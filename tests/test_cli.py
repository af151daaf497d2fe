import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import tiltrig
from tiltrig.cli import main


DATA = resources.files("tiltrig").joinpath("data")
SL2 = str(DATA.joinpath("sl2block.alg"))
CE3 = str(DATA.joinpath("ce3.alg"))
REP = str(DATA.joinpath("sl2_P1.rep"))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_algebra_check(capsys):
    code, out, _ = run(capsys, "algebra", "check", SL2)
    assert code == 0 and "dim 5" in out


def test_algebra_check_missing_file(capsys):
    code, _, err = run(capsys, "algebra", "check", "/nonexistent.alg")
    assert code == 2 and "error" in err


def test_directory_input_exit_2(tmp_path, capsys):
    for argv in (("algebra", "check"), ("module", "series"), ("qh", "verify")):
        code, _, err = run(capsys, *argv, str(tmp_path))
        assert code == 2 and err.startswith("error: ") and "Is a directory" in err, argv


def test_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("field 0\nvertex 1\nbogus\n")
    code, _, err = run(capsys, "algebra", "check", str(bad))
    assert code == 2 and "line 3" in err
    bad.write_text("field 0\nvertex 1 2\narrow a 1 2\narrow a 2 1\n")
    code, _, err = run(capsys, "algebra", "check", str(bad))
    assert code == 2 and err == "error: line 4: duplicate arrow name 'a'\n"
    # errors that no line holds name the file
    for text, message in (("vertex 1\n", "missing 'field' line"), ("field 0\n", "no vertices declared")):
        bad.write_text(text)
        code, _, err = run(capsys, "algebra", "check", str(bad))
        assert code == 2 and err == f"error: {bad}: {message}\n", text


def test_module_series(capsys):
    code, out, _ = run(capsys, "module", "series", REP, "--type", "radical")
    assert code == 0 and out.strip() == "1 | 2 | 1"
    code, out, _ = run(capsys, "module", "series", REP, "--type", "socle")
    assert code == 0 and out.strip() == "1 | 2 | 1"


def test_qh_verify_exit_codes(tmp_path, capsys):
    code, out, _ = run(capsys, "qh", "verify", SL2)
    assert code == 0 and "PASS" in out
    reversed_alg = tmp_path / "rev.alg"
    reversed_alg.write_text(
        "field 0\nvertex 1 2\norder 2 < 1\narrow a 1 2\narrow b 2 1\nrelation 1*b.a\nduality a=b\n"
    )
    code, out, _ = run(capsys, "qh", "verify", str(reversed_alg))
    assert code == 1 and "FAIL" in out


def test_bare_order_line_declares_an_order_with_no_covers(tmp_path, capsys):
    alg = tmp_path / "two.alg"
    alg.write_text("field 3\nvertex 1 2\norder\n")
    code, out, _ = run(capsys, "qh", "verify", str(alg))
    assert code == 0 and "PASS" in out
    # without an `order` line, no order is declared
    alg.write_text("field 3\nvertex 1 2\n")
    code, _, err = run(capsys, "qh", "verify", str(alg))
    assert code == 2 and err == f"error: {alg}: algebra file declares no weight order\n"


def test_incomparable_weights_reach_the_factoring_witness(tmp_path, capsys):
    # a and b are incomparable, so P(a) = [a | b] is generated at the maximal
    # weight a but does not vanish at b, which is not <= a
    alg = tmp_path / "incomparable.alg"
    alg.write_text("field 2\nvertex a b\norder\narrow x a b\n")
    code, out, _ = run(capsys, "--format", "json", "qh", "verify", str(alg))
    assert code == 1
    weights = json.loads(out)["weights"]
    assert weights["a"]["witness"] == (
        "FiltrationFailure(at a: trace of the maximal weight is not a standard power"
        " (a map does not factor through the standard quotient))"
    )
    assert (weights["a"]["axiom_i"], weights["a"]["axiom_ii"]) == (True, False)
    assert weights["b"]["ok"] and weights["b"]["filtration"] == [["b", 0]]


def test_tilting_and_rigidity_refuse_non_quasihereditary_order(tmp_path, capsys):
    reversed_alg = tmp_path / "rev.alg"
    reversed_alg.write_text(
        "field 0\nvertex 1 2\norder 2 < 1\narrow a 1 2\narrow b 2 1\nrelation 1*b.a\nduality a=b\n"
    )
    for command in (("tilting", "build"), ("rigidity", "check")):
        code, out, err = run(capsys, *command, str(reversed_alg), "--weight", "1")
        assert code == 2 and out == ""
        assert "not quasi-hereditary at weight 1: axiom (i)" in err


def test_truncated_rep_exit_2(tmp_path, capsys):
    # map b needs 2 rows: the file ends after 1, or map a follows after 1
    cases = [("map a\n1 0\nmap b\n0\n", "line 6: "), ("map b\n0\nmap a\n1 0\n", "line 4: ")]
    for body, where in cases:
        truncated = tmp_path / "short.rep"
        truncated.write_text(f"algebra {SL2}\ndim 1 2\ndim 2 1\n{body}")
        code, _, err = run(capsys, "module", "series", str(truncated))
        assert code == 2 and where in err and "'b'" in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "body, message",
    [
        ("dim 1\n", "line 2: expected 'dim <vertex> <count>'"),
        ("dim 1 x\n", "line 2: dimension 'x' is not a non-negative integer"),
        ("dim 7 1\n", "line 2: unknown vertex '7'"),
        ("dim 1 2\ndim 2 1\nmap\n", "line 4: expected 'map <arrow>'"),
        ("dim 1 2\ndim 2 1\nmap a\n1 0\nmap b\n0 1\n1\n", "line 8: map 'b': row has 1 entries"),
        ("dim 1 2\ndim 2 1\nmap a\n1 0 1\n", "line 5: map 'a': row has 3 entries, expected dim 1 = 2"),
        ("dim 1 2\ndim 2 1\nmap a\n1 0\nmap b\n1\n0\n", "lines 4, 6: relation 1*b.a does not act by zero"),
    ],
)
def test_malformed_rep_exit_2(tmp_path, capsys, body, message):
    bad = tmp_path / "bad.rep"
    bad.write_text(f"algebra {SL2}\n{body}")
    code, _, err = run(capsys, "module", "series", str(bad))
    assert code == 2 and message in err
    assert "Traceback" not in err


def test_whole_file_faults_name_the_file(tmp_path, capsys):
    rep = tmp_path / "headless.rep"
    rep.write_text("dim 1 1\n")
    code, _, err = run(capsys, "module", "series", str(rep))
    assert code == 2 and err == f"error: {rep}: representation file lacks an 'algebra' line\n"
    reversed_alg = tmp_path / "rev.alg"
    reversed_alg.write_text("field 0\nvertex 1 2\norder 2 < 1\narrow a 1 2\narrow b 2 1\nrelation 1*b.a\n")
    code, _, err = run(capsys, "tilting", "build", str(reversed_alg), "--weight", "2")
    assert code == 2 and err.startswith(f"error: {reversed_alg}: not quasi-hereditary at weight 1")


def test_unreadable_algebra_file_names_the_rep_and_its_line(tmp_path, capsys):
    rep = tmp_path / "orphan.rep"
    for target, reason in (("missing.alg", "No such file or directory"), (".", "Is a directory")):
        rep.write_text(f"# the algebra line names no readable file\nalgebra {target}\ndim 1 1\n")
        code, _, err = run(capsys, "module", "series", str(rep))
        alg = os.path.join(str(tmp_path), target)
        assert code == 2 and err == f"error: {rep}: line 2: cannot read algebra file {alg!r}: {reason}\n", target


@pytest.mark.parametrize(
    "head, tail, message",
    [
        (f"algebra algebra {SL2}\n", "", "line 1: expected 'algebra <path>'"),
        (f"# one path only\nalgebra {SL2} extra\n", "", "line 2: expected 'algebra <path>'"),
        (f"algebra\nalgebra {SL2}\n", "", "line 1: expected 'algebra <path>'"),
        (f"algebra {SL2}\n", f"algebra {SL2}\n", "line 9: second 'algebra' line, after line 1"),
    ],
    ids=["keyword twice", "trailing token", "no path", "second line"],
)
def test_algebra_line_is_one_path_given_once(tmp_path, capsys, head, tail, message):
    rep = tmp_path / "heads.rep"
    rep.write_text(f"{head}dim 1 2\ndim 2 1\nmap a\n1 0\nmap b\n0\n1\n{tail}")
    code, _, err = run(capsys, "module", "series", str(rep))
    assert code == 2 and err == f"error: {rep}: {message}\n"


def test_rep_comments_inside_map_block(tmp_path, capsys):
    rep = tmp_path / "commented.rep"
    rep.write_text(f"algebra {SL2}\ndim 1 2\ndim 2 1\nmap a\n# generator to middle\n\n1 0\nmap b\n0\n  # socle\n1\n")
    code, out, _ = run(capsys, "module", "series", str(rep))
    assert code == 0 and out.strip() == "1 | 2 | 1"


def test_relation_with_unknown_arrow_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.alg"
    bad.write_text("field 0\nvertex 1 2\narrow a 1 2\narrow b 2 1\nrelation b.c\n")
    code, _, err = run(capsys, "algebra", "check", str(bad))
    assert code == 2 and "line 5: unknown arrow 'c'" in err
    assert "Traceback" not in err


def test_duplicate_vertex_names_its_line(tmp_path, capsys):
    bad = tmp_path / "dup.alg"
    bad.write_text("field 0\nvertex 1 2\narrow a 1 2\nvertex 2\n")
    code, _, err = run(capsys, "algebra", "check", str(bad))
    assert code == 2 and "error: line 4: duplicate vertex label '2'" in err


def test_order_with_unknown_label_names_its_line(tmp_path, capsys):
    # the order comes before the vertices, so the labels are checked once all are read
    bad = tmp_path / "order.alg"
    bad.write_text("field 0\norder 1 < 3\nvertex 1 2\narrow a 1 2\n")
    code, _, err = run(capsys, "algebra", "check", str(bad))
    assert code == 2 and "error: line 2: order relation names unknown label: 1 < 3" in err


def test_duality_with_unknown_arrow_names_its_line(tmp_path, capsys):
    bad = tmp_path / "duality.alg"
    bad.write_text("field 0\nvertex 1 2\nduality a=c\narrow a 1 2\narrow b 2 1\nrelation b.a\n")
    code, _, err = run(capsys, "algebra", "check", str(bad))
    assert code == 2 and "error: line 3: duality names unknown arrow in a=c" in err


def test_cyclic_order_names_its_lines(tmp_path, capsys):
    # refused when the file is read, before any command builds the weight poset
    cyclic = tmp_path / "cyclic.alg"
    cyclic.write_text("field 0\nvertex 1 2\norder 1 < 2\norder 2 < 1\narrow a 1 2\n")
    for argv in (("algebra", "check"), ("qh", "verify")):
        code, out, err = run(capsys, *argv, str(cyclic))
        assert code == 2 and out == "", argv
        assert err == "error: lines 3, 4: order is not antisymmetric at 1, 2\n", argv
    # only the covers on the cycle are named
    cyclic.write_text("field 0\nvertex 1 2 3\norder 1 < 2\norder 2 < 3\norder 1 < 3\norder 3 < 2\n")
    code, _, err = run(capsys, "algebra", "check", str(cyclic))
    assert code == 2 and err == "error: lines 4, 6: order is not antisymmetric at 2, 3\n"


# b.a, c.a, a.b and a.c make the algebra finite, so only the duality is at fault
_THREE_ARROWS = "field 0\nvertex 1 2\narrow a 1 2\narrow b 2 1\narrow c 2 1\nrelation b.a\nrelation c.a\nrelation a.b\nrelation a.c\n"


@pytest.mark.parametrize(
    "duality,message",
    [
        ("duality a=b a=c\n", "line 10: duality pairs arrow 'a' twice"),
        ("duality a=b\nduality c=b\n", "line 11: duality pairs arrow 'b' twice"),
        # an arrow left out, or paired the wrong way round, is named by its own line
        ("duality a=b\n", "line 5: duality must pair every arrow"),
        ("duality a=b c=c\n", "line 5: duality pair c=c does not reverse direction"),
    ],
)
def test_duality_fault_names_its_line_and_arrow(tmp_path, capsys, duality, message):
    bad = tmp_path / "duality.alg"
    bad.write_text(_THREE_ARROWS + duality)
    code, out, err = run(capsys, "algebra", "check", str(bad))
    assert code == 2 and out == "" and err == f"error: {message}\n"


def test_unknown_weight_names_the_option(capsys):
    # as `--field 4` names `--field`
    for argv in (("tilting", "build"), ("rigidity", "check")):
        code, _, err = run(capsys, *argv, SL2, "--weight", "3")
        assert code == 2 and f"error: argument --weight: '3' is not a vertex of {SL2}" in err, argv


def test_free_two_loop_algebra_exit_2(tmp_path, capsys):
    free = tmp_path / "free.alg"
    free.write_text("field 3\nvertex 1\narrow x 1 1\narrow y 1 1\n")
    code, _, err = run(capsys, "algebra", "check", str(free))
    assert code == 2 and "error: lines 3, 4: arrows x, y contain an oriented cycle that no relation involves" in err
    # the refusal names the lines of the cycle's arrows
    free.write_text("field 3\nvertex 1 2\n# a 2-cycle\narrow a 1 2\narrow c 1 1\narrow b 2 1\nrelation c.c\n")
    code, _, err = run(capsys, "algebra", "check", str(free))
    assert code == 2 and "error: lines 4, 6: arrows a, b contain an oriented cycle" in err


def test_entry_with_no_image_in_field_exit_2(tmp_path, capsys):
    alg = tmp_path / "third.alg"
    alg.write_text("field 0\nvertex 1 2\norder 1 < 2\narrow a 1 2\narrow b 2 1\nrelation 1/3*b.a\n")
    code, _, err = run(capsys, "--field", "3", "algebra", "check", str(alg))
    assert code == 2 and "line 6: relation coefficient 1/3 has no image in F_3" in err
    rep = tmp_path / "third.rep"
    rep.write_text(f"algebra {SL2}\ndim 1 1\ndim 2 1\nmap a\n1/3\nmap b\n0\n")
    code, _, err = run(capsys, "--field", "3", "module", "series", str(rep))
    assert code == 2 and "line 5: map 'a': 1/3 has no image in F_3" in err
    # over Q both files are fine
    assert run(capsys, "algebra", "check", str(alg))[0] == 0
    assert run(capsys, "module", "series", str(rep))[0] == 0


def test_tilting_build(capsys):
    code, out, _ = run(capsys, "tilting", "build", SL2, "--weight", "2")
    assert code == 0 and "1 | 2 | 1" in out


def test_rigidity_check_json_and_exit(capsys):
    code, out, _ = run(capsys, "--format", "json", "rigidity", "check", SL2, "--weight", "2", "--method", "both")
    assert code == 0
    payload = json.loads(out)
    assert payload["consistent"] is True
    assert payload["rigid_theorem"] is True
    assert payload["rigid_oracle"] is True
    code, out, _ = run(capsys, "--format", "json", "rigidity", "check", CE3, "--weight", "3")
    assert code == 1
    payload = json.loads(out)
    assert payload["rigid_theorem"] == "n/a" and payload["rigid_oracle"] is False
    assert payload["consistent"] is True


def test_rigidity_deterministic(capsys):
    _, out1, _ = run(capsys, "--format", "json", "rigidity", "check", SL2, "--weight", "2")
    _, out2, _ = run(capsys, "--format", "json", "rigidity", "check", SL2, "--weight", "2")
    assert out1 == out2


def test_sl4_wallcross_text(capsys):
    code, out, _ = run(capsys, "sl4", "wallcross", "s2", "L", "3")
    assert code == 0 and out.strip() == "fl + 2·3 + 2"
    code, out, _ = run(capsys, "sl4", "wallcross", "s2", "L", "2")
    assert code == 0 and out.strip() == "0"
    code, _, err = run(capsys, "sl4", "wallcross", "s0", "L", "3")
    assert code == 2 and "insufficient alcove data" in err


def test_sl4_projectives_match_golden(capsys):
    code, out, _ = run(capsys, "sl4", "projectives")
    assert code == 0
    golden = DATA.joinpath("sl4.projectives.lay").read_text(encoding="utf-8")
    golden_lines = [l.strip() for l in golden.splitlines() if l.strip() and not l.startswith("#")]
    assert out.strip().splitlines() == golden_lines


def test_sl4_tiltings_match_golden(capsys):
    code, out, _ = run(capsys, "sl4", "tiltings")
    assert code == 0
    golden = DATA.joinpath("sl4.tiltings.lay").read_text(encoding="utf-8")
    golden_lines = [l.strip() for l in golden.splitlines() if l.strip() and not l.startswith("#")]
    assert out.strip().splitlines() == golden_lines


def test_sl4_homdim(capsys):
    code, out, _ = run(capsys, "sl4", "homdim", "4", "4,3,3',2")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "sl4", "homdim", "3", "5,4,fl,fl',3,3'")
    assert code == 0 and out.strip() == "1"


@pytest.mark.parametrize("mults,count", [("4*x", "x"), ("4*", "")])
def test_sl4_homdim_bad_multiplicity_is_located(capsys, mults, count):
    code, _, err = run(capsys, "sl4", "homdim", mults, "3")
    assert code == 2 and f"multiplicity {count!r} in {mults!r} is not an integer" in err


def test_library_errors_are_value_errors():
    # main reports OSError and ValueError as exit 2; any other library error
    # class would end a command in a traceback
    classes = set()
    for info in pkgutil.iter_modules(tiltrig.__path__):
        module = importlib.import_module(f"tiltrig.{info.name}")
        classes.update(
            cls for _, cls in inspect.getmembers(module, inspect.isclass)
            if issubclass(cls, BaseException) and cls.__module__ == module.__name__
        )
    assert {cls.__name__ for cls in classes} >= {"ModuleError", "QuiverError", "AlgParseError", "BlockError"}
    assert [cls.__name__ for cls in classes if not issubclass(cls, ValueError)] == ["CliError"]


def test_render_dot(capsys, dot_is_wellformed):
    code, out, _ = run(capsys, "render", REP, "--dot")
    assert code == 0 and dot_is_wellformed(out)


def test_field_override(capsys):
    code, out, _ = run(capsys, "--format", "json", "--field", "2", "algebra", "check", SL2)
    assert code == 0 and json.loads(out)["field"] == 2


def test_bad_field_is_located(tmp_path, capsys):
    # in a file, the error names the `field` line
    bad = tmp_path / "f4.alg"
    bad.write_text("# four elements\nfield 4\nvertex 1\n")
    code, _, err = run(capsys, "algebra", "check", str(bad))
    assert code == 2 and "line 2: characteristic must be 0 or prime, got 4" in err
    # on the command line, it names the option
    with pytest.raises(SystemExit) as exc:
        main(["--field", "4", "algebra", "check", SL2])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "argument --field: characteristic must be 0 or prime, got 4" in err
    assert "line 0" not in err


def _loaded_library_modules(*argv):
    """The `tiltrig` modules a fresh interpreter holds after `import tiltrig.cli`,
    and after `main(argv)` when arguments are given."""
    code = "import sys, tiltrig.cli\n"
    if argv:
        code += f"tiltrig.cli.main({list(argv)!r})\n"
    code += "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'tiltrig'))\n"
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_each_subcommand_loads_only_the_modules_it_uses():
    # the pytest process has every module loaded, so each case runs in its own interpreter
    assert _loaded_library_modules() == {"tiltrig", "tiltrig.cli"}
    assert _loaded_library_modules("algebra", "check", SL2) == {
        "tiltrig", "tiltrig.cli", "tiltrig.linalg", "tiltrig.quiver"
    }
    sl4 = _loaded_library_modules("sl4", "tiltings")
    assert "tiltrig.characters" in sl4
    assert not {"tiltrig.modules", "tiltrig.highest_weight"} & sl4
    # the subcommands the benchmark times: every job compiles what it loads
    base = {"tiltrig", "tiltrig.cli", "tiltrig.linalg", "tiltrig.quiver", "tiltrig.modules"}
    assert _loaded_library_modules("module", "series", REP) == base
    assert _loaded_library_modules("render", REP) == base | {"tiltrig.coeffquiver"}
    hw = base | {"tiltrig.highest_weight"}
    assert _loaded_library_modules("tilting", "build", SL2, "--weight", "2") == hw
    # the layer formula and BGG reciprocity live in quiver, so no algebra needs characters
    assert _loaded_library_modules("qh", "verify", CE3) == hw
    assert _loaded_library_modules("qh", "verify", SL2) == hw
    assert _loaded_library_modules("rigidity", "check", SL2, "--weight", "2") == hw | {"tiltrig.rigidity"}
