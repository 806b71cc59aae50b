"""Command-line interface: outputs, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import greenseq
from greenseq import AlgebraSpec, GreenEngine, ModuleCategory, cli, green, modcat
from greenseq.cli import canonical_json, main
from greenseq.typea import TypeABackend

from conftest import drop_last_chain, edit_walk, repeat_last_chain
from test_classes import refuse_sequence_walks


def _oracle(obj) -> str:
    """The encoder `canonical_json` replaces."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _mgs_report(spec: AlgebraSpec) -> dict:
    """The report `mgs` printed through `canonical_json` before it wrote
    its records during the walk."""
    cat = ModuleCategory(spec)
    display = {b: cat.display(b) for b in cat.bricks}
    descriptor = {b: cat.descriptor_str(b) for b in cat.bricks}
    seqs = [{"index": k, "ids": list(g.bricks),
             "bricks": [display[b] for b in g.bricks],
             "descriptors": [descriptor[b] for b in g.bricks],
             "length": len(g.bricks)}
            for k, g in enumerate(GreenEngine(cat).enumerate_mgs())]
    return {"algebra": spec.to_dict(), "count": len(seqs), "sequences": seqs}


def _write_spec(tmp_path, spec: AlgebraSpec) -> str:
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(spec.to_dict()))
    return str(path)


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.json"
    path.write_text('{"type": "typeA", "orientation": "<>"}\n')
    return str(path)


@pytest.fixture
def a2_file(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text('{"type": "nakayama", "cyclic": false, "kupisch": [2, 1]}\n')
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_catalog(capsys, example_file):
    code, out, _ = run(capsys, "catalog", example_file)
    assert code == 0
    data = json.loads(out)
    assert len(data["modules"]) == 6
    assert all(m["brick"] for m in data["modules"])


def test_bricks_count(capsys, example_file):
    code, out, _ = run(capsys, "bricks", example_file)
    assert code == 0
    assert json.loads(out)["count"] == 6


def test_mgs_listing(capsys, a2_file):
    code, out, _ = run(capsys, "mgs", a2_file)
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2
    assert data["sequences"][0]["bricks"] == ["1", "2"]
    assert data["sequences"][1]["descriptors"] == ["U(2,1)", "U(1,2)", "U(1,1)"]


def test_classes_listing(capsys, example_file):
    code, out, _ = run(capsys, "classes", example_file)
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 6
    keys = {tuple(c["summand_key"]) for c in data["classes"]}
    assert ("12", "2", "32", "12[1]", "2[1]", "32[1]") in keys


def test_poset_dot(capsys, example_file):
    code, out, _ = run(capsys, "poset", example_file, "--order", "summand")
    assert code == 0
    assert out.startswith("digraph hasse {")
    assert out.count("->") == 6
    assert out.count("label=") == 6


def test_poset_dot_identical_for_equal_orders(capsys, example_file):
    _, out_s, _ = run(capsys, "poset", example_file, "--order", "summand")
    _, out_h, _ = run(capsys, "poset", example_file, "--order", "hn")
    assert out_s == out_h


def test_poset_json_roundtrip(capsys, example_file):
    code, out, _ = run(capsys, "poset", example_file, "--order", "pentagon",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data["covers"]) == 6
    # leq[i][j]: class i lies below class j, so below its covers
    leq = data["leq"]
    assert all(leq[lo][up] and not leq[up][lo] for up, lo in data["covers"])
    assert json.dumps(data, indent=2, sort_keys=True) + "\n" == out


def test_poset_output_file(capsys, tmp_path, example_file):
    target = tmp_path / "poset.dot"
    code, out, _ = run(capsys, "poset", example_file, "--order", "summand",
                       "-o", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("digraph hasse {")


@pytest.mark.parametrize("order", ["pentagon", "summand", "hn"])
def test_poset_json_output_file_holds_the_stdout_bytes(capsys, tmp_path,
                                                       example_file, order):
    argv = ["poset", example_file, "--order", order, "--format", "json"]
    _, printed, _ = run(capsys, *argv)
    target = tmp_path / "poset.json"
    code, out, _ = run(capsys, *argv, "-o", str(target))
    assert code == 0 and out == ""
    assert target.read_bytes() == printed.encode("utf-8")
    assert printed.startswith("{\n")


def test_brick_order_refusal(capsys, example_file):
    code, _, err = run(capsys, "poset", example_file, "--order", "brick")
    assert code == 2
    assert "1<-2->3" in err and "antisymmetry" in err


def test_hn_by_brick_list(capsys, a2_file):
    code, out, _ = run(capsys, "hn", a2_file, "--mgs", "1,2",
                       "--module", "U(1,2)")
    assert code == 0
    data = json.loads(out)
    assert data["stable_factors"] == [["1", 1], ["2", 1]]
    assert [l["brick"] for l in data["layers"]] == ["1", "2"]


def test_hn_single_layer(capsys, a2_file):
    code, out, _ = run(capsys, "hn", a2_file, "--mgs", "2,12,1",
                       "--module", "12")
    assert code == 0
    data = json.loads(out)
    assert data["layers"] == [
        {"brick": "12", "factor": "12", "multiplicity": 1, "position": 2}]


def test_hn_example_golden(capsys, example_file):
    code, out, _ = run(capsys, "hn", example_file,
                       "--mgs", "2,12,1,32,3", "--module", "132")
    assert code == 0
    assert json.loads(out)["stable_factors"] == [["1", 1], ["32", 1]]


def test_hn_sum_expression(capsys, a2_file):
    code, out, _ = run(capsys, "hn", a2_file, "--mgs", "0",
                       "--module", "U(2,1)+U(1,2)")
    assert code == 0
    data = json.loads(out)
    assert data["module"] == "12+2"
    assert data["stable_factors"] == [["1", 1], ["2", 2]]


def test_hn_computes_the_filtration_once(capsys, monkeypatch, example_file):
    calls = []
    real = GreenEngine.hn_filtration

    def counting(self, module, g):
        calls.append(g.bricks)
        return real(self, module, g)

    monkeypatch.setattr(GreenEngine, "hn_filtration", counting)
    code, _, _ = run(capsys, "hn", example_file,
                     "--mgs", "2,12,1,32,3", "--module", "132")
    assert code == 0 and len(calls) == 1


def test_hn_invalid_brick_list_explains(capsys, a2_file):
    code, _, err = run(capsys, "hn", a2_file, "--mgs", "2,1", "--module", "12")
    assert code == 2
    assert "12" in err and "inserted" in err


@pytest.mark.parametrize("index", ["\u00b2", "\u0663"])
def test_hn_index_of_non_ascii_digits_is_a_usage_error(capsys, example_file,
                                                       index):
    # "²" passes str.isdigit() and "٣" str.isdecimal(); neither is an index
    code, out, err = run(capsys, "hn", example_file, "--mgs", index,
                         "--module", "#0")
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_classes_and_verify_list_no_sequence(capsys, monkeypatch, example_file):
    calls = [["classes"], ["verify", "--suite", "lemmas"],
             ["verify", "--suite", "all"]]
    expected = [run(capsys, name, example_file, *options)
                for name, *options in calls]

    def refuse(self):
        raise AssertionError("sequences listed")

    monkeypatch.setattr(GreenEngine, "enumerate_mgs", refuse)
    assert [run(capsys, name, example_file, *options)
            for name, *options in calls] == expected
    assert all(code == 0 for code, _, _ in expected)


def test_verify_suites_pass(capsys, example_file, a2_file):
    for suite in ("theoremA", "theoremB", "lemmas"):
        code, out, _ = run(capsys, "verify", example_file, "--suite", suite)
        assert code == 0
        assert json.loads(out)["passed"] is True
    code, out, _ = run(capsys, "verify", a2_file, "--suite", "theoremC")
    assert code == 0
    code, out, _ = run(capsys, "verify", a2_file, "--suite", "all")
    assert code == 0


def test_verify_theorem_c_refused_off_nakayama(capsys, example_file):
    code, _, err = run(capsys, "verify", example_file, "--suite", "theoremC")
    assert code == 2
    assert "Nakayama" in err


def test_parse_error_reports_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"type": "typeA",\n  "orientation": }\n')
    code, _, err = run(capsys, "catalog", str(path))
    assert code == 2
    assert "line 2" in err and "column" in err


def test_unknown_key_rejected(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"type": "typeA", "orientation": "<", "quiver": "A2"}\n')
    code, _, err = run(capsys, "catalog", str(path))
    assert code == 2
    assert "unknown keys" in err


def test_gate_error_is_usage_exit(capsys, monkeypatch, example_file):
    # the README example's torsion lattice has 14 classes
    monkeypatch.setattr(modcat, "LATTICE_GATE", 13)
    code, out, err = run(capsys, "classes", example_file)
    assert code == 2 and out == ""
    assert "more than 13 classes, the lattice gate" in err


def test_brick_gate_flag_is_an_argparse_error(capsys, example_file):
    for argv, message in (
            (["--brick-gate=2", "mgs"], "unrecognized arguments: --brick-gate=2"),
            (["--brick-gate", "2", "mgs"], "invalid choice: '2'"),
            (["--subset-gate=4", "verify", "--suite", "all"],
             "unrecognized arguments: --subset-gate=4")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, example_file])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: greenseq [-h] [--exact]\n")
        assert message in err


def test_sequence_gate_of_one_refuses_the_readme_example(capsys, monkeypatch,
                                                         example_file):
    monkeypatch.setattr(green, "SEQUENCE_GATE", 1)
    code, out, err = run(capsys, "mgs", example_file)
    assert code == 2 and out == ""
    assert "10 maximal green sequences exceed the sequence gate of 1" in err


@pytest.fixture
def zigzag_file(tmp_path):
    """typeA <><><: 16,424,057 sequences in 987 classes."""
    path = tmp_path / "zigzag.json"
    path.write_text('{"type": "typeA", "orientation": "<><><"}\n')
    return str(path)


@pytest.mark.parametrize("argv", [["mgs"], ["classes"]])
def test_default_sequence_gate_refuses_a_six_vertex_zigzag(
        capsys, monkeypatch, zigzag_file, argv):
    # the count is taken on the lattice, before any sequence is listed or
    # any class found
    def refuse(*args):
        raise AssertionError("sequences listed")

    monkeypatch.setattr(GreenEngine, "_walk", refuse)
    monkeypatch.setattr(GreenEngine, "_normal_forms", refuse)
    code, out, err = run(capsys, argv[0], zigzag_file, *argv[1:])
    assert code == 2 and out == ""
    assert "16424057 maximal green sequences exceed the sequence gate" in err


def test_six_vertex_zigzag_hn_by_index_lists_no_sequence(capsys, monkeypatch,
                                                         zigzag_file):
    refuse_sequence_walks(monkeypatch)
    code, out, _ = run(capsys, "hn", zigzag_file, "--mgs", "16424056",
                       "--module", "#0")
    assert code == 0
    listed = json.loads(out)["mgs"]
    code, by_list, _ = run(capsys, "hn", zigzag_file, "--mgs", ",".join(listed),
                           "--module", "#0")
    assert code == 0 and by_list == out


def test_six_vertex_zigzag_theorem_a_lists_no_sequence(capsys, monkeypatch,
                                                       zigzag_file):
    refuse_sequence_walks(monkeypatch)
    code, out, _ = run(capsys, "verify", zigzag_file, "--suite", "theoremA")
    assert code == 0
    assert json.loads(out)["checks"][0]["detail"] == {"classes": 987,
                                                      "sequences": 16424057}


def test_deterministic_output(capsys, example_file):
    _, out1, _ = run(capsys, "classes", example_file)
    _, out2, _ = run(capsys, "classes", example_file)
    assert out1 == out2


def test_json_roundtrip_identity(capsys, example_file):
    for argv in (["catalog", example_file], ["mgs", example_file],
                 ["classes", example_file]):
        _, out, _ = run(capsys, *argv)
        assert json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n" == out


def test_exact_flag_same_output(capsys, example_file):
    _, out1, _ = run(capsys, "bricks", example_file)
    _, out2, _ = run(capsys, "--exact", "bricks", example_file)
    assert out1 == out2


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("command", ["catalog", "bricks"])
def test_catalog_and_bricks_build_no_ses_records(capsys, monkeypatch,
                                                 example_file, command, exact):
    # both read only the catalog and the Hom table, so neither asks for
    # SES records nor builds them eagerly
    def refuse(self, i):
        raise AssertionError(f"records of {i} built for {command}")

    monkeypatch.setattr(TypeABackend, "records", refuse)
    monkeypatch.setattr(TypeABackend, "_build_records", refuse)
    flags = ["--exact"] if exact else []
    code, out, _ = run(capsys, *flags, command, example_file)
    assert code == 0
    assert json.loads(out)["algebra"]["orientation"] == "<>"


def test_hn_by_raw_id(capsys, a2_file):
    code, out, _ = run(capsys, "hn", a2_file, "--mgs", "0", "--module", "#1")
    assert code == 0
    assert json.loads(out)["module"] == "12"


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "catalog", "/nonexistent/algebra.json")
    assert code == 2
    assert "cannot read" in err


def test_non_utf8_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b'\xff\xfe{"type": "typeA", "orientation": "<>"}\n')
    code, out, err = run(capsys, "catalog", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {path}: ")
    assert "can't decode byte 0xff" in err


def test_deeply_nested_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "catalog", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}: parse error: nested too deeply\n"


def test_unwritable_poset_output_is_usage_error(capsys, tmp_path, example_file):
    target = tmp_path / "missing" / "poset.dot"
    code, out, err = run(capsys, "poset", example_file, "--order", "summand",
                         "-o", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.parent.exists()


def test_bad_module_expression(capsys, a2_file):
    code, _, err = run(capsys, "hn", a2_file, "--mgs", "0", "--module", "U(9,9)")
    assert code == 2
    assert "U(9,9)" in err


def test_failed_check_maps_to_exit_one(capsys, a2_file, monkeypatch):
    from greenseq.verify import CheckResult

    monkeypatch.setattr("greenseq.verify.run_suite",
                        lambda *a, **k: [CheckResult("synthetic", False, {})])
    code, out, _ = run(capsys, "verify", a2_file, "--suite", "lemmas")
    assert code == 1
    assert json.loads(out)["passed"] is False


def _fresh_python(script: str, *args: str) -> str:
    """stdout of `script` run by a fresh interpreter that imports this
    greenseq."""
    src = str(Path(greenseq.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    return proc.stdout


_LAYERS = ("greenseq.green", "greenseq.orders", "greenseq.verify")
# each call on type A <> and the layers it must not load
_FOOTPRINTS = [
    (["catalog"], _LAYERS),
    (["--exact", "catalog"], _LAYERS),
    (["bricks"], _LAYERS),
    (["--exact", "bricks"], _LAYERS),
    (["mgs"], _LAYERS[1:]),
    (["classes"], _LAYERS[1:]),
    (["hn", "--mgs", "0", "--module", "#0"], _LAYERS[1:]),
    (["poset", "--order", "pentagon"], _LAYERS[2:]),
]


@pytest.mark.parametrize("argv, absent", _FOOTPRINTS,
                         ids=[" ".join(argv) for argv, _ in _FOOTPRINTS])
def test_command_imports_only_the_layers_it_runs(example_file, argv, absent):
    flags = argv[:argv[0] == "--exact"]
    command, *options = argv[len(flags):]
    script = ("import contextlib, io, json, sys\n"
              "from greenseq import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    code = cli.main(sys.argv[1:])\n"
              "print(json.dumps([code, sorted(sys.modules)]))")
    code, loaded = json.loads(_fresh_python(
        script, *flags, command, example_file, *options))
    assert code == 0
    assert "greenseq.modcat" in loaded
    # no command needs Fraction arithmetic
    assert [m for m in (*absent, "fractions") if m in loaded] == []


# each command on type A <>, run in turn by one interpreter
_COMMANDS = [["catalog"], ["bricks"], ["mgs"], ["classes"],
             ["poset", "--order", "pentagon"], ["hn", "--mgs", "0", "--module", "#0"],
             ["verify", "--suite", "all"]]


def test_no_command_imports_dataclasses_inspect_or_typing(example_file):
    """Importing these costs a cold start more than most commands compute;
    `-S` keeps the site `.pth` imports out, so only greenseq can load them."""
    src = str(Path(greenseq.__file__).resolve().parents[1])
    script = ("import contextlib, io, json, sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "watched = ('dataclasses', 'inspect', 'typing')\n"
              "before = {m for m in watched if m in sys.modules}\n"
              "from greenseq import cli\n"
              "loaded = {}\n"
              "for command, *options in json.loads(sys.argv[2]):\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        code = cli.main([command, sys.argv[3], *options])\n"
              "    loaded[command] = [code, [m for m in watched\n"
              "                             if m in sys.modules and m not in before]]\n"
              "print(json.dumps(loaded))")
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, src, json.dumps(_COMMANDS), example_file],
        capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == {argv[0]: [0, []] for argv in _COMMANDS}


def test_star_import_binds_every_exported_name():
    script = ("import json, sys\n"
              "import greenseq\n"
              "early = [m for m in ('greenseq.green', 'greenseq.orders')\n"
              "         if m in sys.modules]\n"
              "names = {}\n"
              "exec('from greenseq import *', names)\n"
              "print(json.dumps([early, [n for n in greenseq.__all__\n"
              "                          if n not in names],\n"
              "                  greenseq.GreenEngine.__module__]))")
    assert json.loads(_fresh_python(script)) == [[], [], "greenseq.green"]
    assert greenseq.GreenEngine is green.GreenEngine
    with pytest.raises(AttributeError):
        greenseq.no_such_name


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=2 ** 64),
    st.floats(), st.text())
_KEYS = st.one_of(st.text(), st.integers(), st.booleans(), st.none())


def _containers(items):
    return st.one_of(
        st.lists(items, max_size=5), st.tuples(items, items),
        st.dictionaries(st.text(), items, max_size=5),
        st.dictionaries(_KEYS, items, max_size=3),
        st.lists(st.booleans()), st.lists(st.integers()), st.lists(st.text()),
        st.lists(st.one_of(st.integers(), st.booleans())))


def _outcome(encode, obj):
    try:
        return encode(obj)
    except Exception as exc:
        return type(exc)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.recursive(_SCALARS, _containers, max_leaves=40))
@example({"a": [], "b": {}, "c": [[], {}], "d": ()})
@example([1, True, 0, False, None])
@example(["caf\u00e9", "\x00\n\t\"\\", "\u2028", "\U0001f600"])
@example({"x": [10 ** 5000]})
@example([float("nan"), float("inf"), -float("inf"), -0.0, 1e300])
@example({1: "int key", "1": "str key"})
@example({True: 1, None: 2, 3: [{"k": 1.5}]})
@example([object()])
def test_canonical_json_equals_json_dumps(obj):
    # equal text, or the same exception type from both
    assert _outcome(canonical_json, obj) == _outcome(_oracle, obj)


def test_canonical_json_refuses_a_circular_list():
    loop = []
    loop.append({"loop": loop})
    with pytest.raises(ValueError, match="Circular reference"):
        canonical_json(loop)


# report shapes: the one-sequence algebra, the README example, a
# four-vertex zigzag, and a linear and a cyclic Nakayama algebra, whose
# brick order is printed too
@pytest.mark.parametrize("spec", [
    AlgebraSpec.type_a(""), AlgebraSpec.type_a("<>"), AlgebraSpec.type_a("<><"),
    AlgebraSpec.nakayama([4, 3, 2, 1]),
    AlgebraSpec.nakayama([3, 2, 2], cyclic=True),
], ids=lambda s: s.label())
def test_every_command_prints_the_json_dumps_bytes(capsys, monkeypatch,
                                                   tmp_path, spec):
    reports = []

    def recording(obj):
        reports.append(obj)
        return canonical_json(obj)

    monkeypatch.setattr(cli, "canonical_json", recording)
    path = _write_spec(tmp_path, spec)
    orders = ["pentagon", "summand", "hn"]
    if spec.is_nakayama:
        orders.append("brick")
    calls = [["catalog"], ["bricks"], ["mgs"], ["classes"],
             ["hn", "--mgs", "0", "--module", "#0"],
             ["verify", "--suite", "all"]]
    calls += [["poset", "--order", o, "--format", "json"] for o in orders]
    for name, *options in calls:
        code, out, _ = run(capsys, name, path, *options)
        assert code == 0, (name, options)
        report = reports.pop()
        if name == "mgs":
            # only the header goes through `canonical_json`
            assert report["sequences"] == []
            report = _mgs_report(spec)
        assert out == _oracle(report), (name, options)
    assert reports == []


def _tricky(self, x):
    """A display with quotes, backslashes, non-ASCII, control and astral
    characters."""
    return f'"{x}\\\u00e9\x01\n\u2028\U0001f600'


def _patch_tricky_tokens(monkeypatch):
    monkeypatch.setattr(ModuleCategory, "display", _tricky)
    monkeypatch.setattr(ModuleCategory, "descriptor_str",
                        lambda self, x: "\t" + _tricky(self, x)[::-1])


def test_mgs_stream_escapes_like_json_dumps(capsys, monkeypatch, tmp_path):
    _patch_tricky_tokens(monkeypatch)
    spec = AlgebraSpec.type_a("<>")
    code, out, _ = run(capsys, "mgs", _write_spec(tmp_path, spec))
    assert code == 0
    assert out == _oracle(_mgs_report(spec))


def test_mgs_streams_in_several_writes_and_lists_no_sequence(
        capsys, monkeypatch, tmp_path):
    spec = AlgebraSpec.type_a("<>")
    expected = _oracle(_mgs_report(spec))

    def refuse(self):
        raise AssertionError("sequences listed")

    monkeypatch.setattr(GreenEngine, "enumerate_mgs", refuse)
    monkeypatch.setattr(cli, "_RECORDS_PER_WRITE", 3)  # 10 records, 4 writes
    code, out, _ = run(capsys, "mgs", _write_spec(tmp_path, spec))
    assert code == 0 and out == expected


# `mgs` groups the chains of typeA <> in one group with an empty head, as
# its top has at most `green._TAIL_LIMIT` chains below it; <><'s has 179,
# so heads and tails meet; A1 has one chain; and Nakayama 3,3,3,2,1 has
# tabled classes with equally many chains but different tails
GROUP_SPECS = [AlgebraSpec.type_a("<><"), AlgebraSpec.type_a(""),
               AlgebraSpec.nakayama([3, 3, 3, 2, 1])]


@pytest.mark.parametrize("per_write", [1, 7])
@pytest.mark.parametrize("spec", GROUP_SPECS, ids=lambda s: s.label())
def test_mgs_streams_escaped_records_where_groups_and_writes_split(
        capsys, monkeypatch, tmp_path, spec, per_write):
    _patch_tricky_tokens(monkeypatch)
    expected = _oracle(_mgs_report(spec))

    def refuse(self):
        raise AssertionError("sequences listed")

    monkeypatch.setattr(GreenEngine, "enumerate_mgs", refuse)
    monkeypatch.setattr(cli, "_RECORDS_PER_WRITE", per_write)
    code, out, _ = run(capsys, "mgs", _write_spec(tmp_path, spec))
    assert code == 0 and out == expected


def test_mgs_refuses_a_walk_that_disagrees_with_the_count(capsys, monkeypatch,
                                                         example_file):
    edit_walk(monkeypatch, drop_last_chain)
    code, _, err = run(capsys, "mgs", example_file)
    assert code == 1
    assert "listed 9 sequences where the lattice counts 10" in err


def test_mgs_refuses_a_walk_with_one_chain_too_many(capsys, monkeypatch,
                                                    example_file):
    edit_walk(monkeypatch, repeat_last_chain)
    code, _, err = run(capsys, "mgs", example_file)
    assert code == 1
    assert "listed 11 sequences where the lattice counts 10" in err


def test_hn_by_index_reads_the_last_sequence_and_refuses_one_past_it(
        capsys, monkeypatch, example_file):
    cat = ModuleCategory(AlgebraSpec.type_a("<>"))
    last = GreenEngine(cat).enumerate_mgs()[-1]
    by_list = ",".join(cat.display(b) for b in last.bricks)

    def refuse(self):
        raise AssertionError("sequences listed")

    monkeypatch.setattr(GreenEngine, "enumerate_mgs", refuse)
    code, out, _ = run(capsys, "hn", example_file, "--mgs", "9",
                       "--module", "132")
    assert code == 0
    assert out == run(capsys, "hn", example_file, "--mgs", by_list,
                      "--module", "132")[1]
    code, out, err = run(capsys, "hn", example_file, "--mgs", "10",
                         "--module", "132")
    assert code == 2 and out == ""
    assert err == "error: green sequence index 10 out of range 0..9\n"
