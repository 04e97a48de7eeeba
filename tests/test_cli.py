import json

import pytest

from conftest import run_cli, run_python
from deacp.cli import main
from deacp.linear import prove_equal, replay_certificate
from deacp.parser import parse_spec


LEAK = """
domain -4..3
vars h, l
actions send/1, a, b, c
comm { a | b = c }
map start { h = 0 }
proc P = [h = 0] -> send(0) + [not h = 0] -> send(1)
proc OK = send(l) . h := h + 1
proc L = a + delta
proc R = a
security { low = { l }; ext = { send } }
"""


@pytest.fixture()
def leak_file(tmp_path):
    path = tmp_path / "leak.deacp"
    path.write_text(LEAK, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_roundtrips(capsys, leak_file):
    code, out, err = run(capsys, "parse", leak_file)
    assert code == 0
    assert "proc P" in out


def test_bisim_equivalent_exit_zero(capsys, leak_file):
    code, out, _ = run(capsys, "bisim", leak_file, "--left", "L", "--right", "R")
    assert code == 0
    assert "equivalent" in out


def test_bisim_inequivalent_exit_one(capsys, leak_file):
    code, out, _ = run(capsys, "bisim", leak_file, "--left", "P", "--right", "R")
    assert code == 1


def test_ab_bisim_command(capsys, leak_file):
    code, _, _ = run(capsys, "ab-bisim", leak_file, "--left", "L", "--right", "R")
    assert code == 0


def test_dnii_fails_with_pair(capsys, leak_file):
    code, out, _ = run(capsys, "dnii", leak_file, "--process", "P")
    assert code == 1
    assert "sigma" in out


def test_dnii_holds(capsys, leak_file):
    code, out, _ = run(capsys, "dnii", leak_file, "--process", "OK")
    assert code == 0
    assert out.startswith("holds")


def test_lts_json_is_byte_identical_across_runs(capsys, leak_file):
    code1, out1, _ = run(capsys, "lts", leak_file, "--process", "P", "--json")
    code2, out2, _ = run(capsys, "lts", leak_file, "--process", "P", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["root"] == 0
    assert {"from", "map", "action", "to"} == set(payload["transitions"][0])


def test_prove_json(capsys, leak_file):
    code, out, _ = run(capsys, "prove", leak_file, "--left", "L", "--right", "R", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["certificate"]["steps"][0]["rule"] == "A6"


def test_linearize_command(capsys, leak_file):
    code, out, _ = run(capsys, "linearize", leak_file, "--process", "R")
    assert code == 0
    assert out.startswith("rec ")


def test_cfar_command(capsys, tmp_path):
    path = tmp_path / "cfar.deacp"
    path.write_text(
        "actions a, b, c\n"
        "proc H = hide{a}(rec X where { X = [true] -> a . Y + [true] -> b . Z,"
        " Y = [true] -> a . X + [true] -> c . Z, Z = [true] -> epsilon })\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "cfar", str(path), "--process", "H")
    assert code == 0
    assert out.startswith("tau . hide{a}")


def test_syntax_error_exit_two(capsys, tmp_path):
    path = tmp_path / "bad.deacp"
    path.write_text("proc P = ???", encoding="utf-8")
    code, _, err = run(capsys, "parse", str(path))
    assert code == 2
    assert "error" in err


def test_missing_process_exit_two(capsys, leak_file):
    code, _, err = run(capsys, "lts", leak_file, "--process", "NOPE")
    assert code == 2


def test_state_bound_limits_exploration(capsys, leak_file):
    code, out, err = run(capsys, "lts", leak_file, "--process", "R", "--state-bound", "1")
    assert code == 2 and out == ""
    assert err == ("error: exploration exceeded the bound of 1 states "
                   "(partial: 1 states, 0 transitions)\n")


@pytest.mark.parametrize("bound", ["0", "-5"])
def test_state_bound_below_one_is_a_usage_error(capsys, leak_file, bound):
    with pytest.raises(SystemExit) as done:
        main(["lts", leak_file, "--process", "R", f"--state-bound={bound}"])
    captured = capsys.readouterr()
    assert done.value.code == 2 and captured.out == ""
    assert f"argument --state-bound: must be at least 1, got {bound}" in captured.err


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_conjecture_pairs_below_one_is_a_usage_error(capsys, pairs):
    with pytest.raises(SystemExit) as done:
        main(["conjecture", f"--pairs={pairs}"])
    captured = capsys.readouterr()
    assert done.value.code == 2 and captured.out == ""
    assert f"argument --pairs: must be at least 1, got {pairs}" in captured.err


def test_lts_text_mode_builds_no_json_payload(capsys, leak_file, monkeypatch):
    from deacp.sos_cond import CondLts
    from deacp.sos_sigma import SigmaLts

    def unused(self):
        raise AssertionError("the text output needs no JSON payload")

    monkeypatch.setattr(SigmaLts, "to_json_dict", unused)
    monkeypatch.setattr(CondLts, "to_json_dict", unused)
    for extra in ((), ("--cond",)):
        code, out, err = run(capsys, "lts", leak_file, "--process", "R", *extra)
        assert (code, out, err) == (0, "states: 2\ntransitions: 1\nroot: 0\n", "")


def test_conjecture_command(capsys):
    code, out, _ = run(capsys, "conjecture", "--pairs", "6", "--seed", "3")
    assert code == 0
    assert "pairs checked: 6" in out


def test_only_conjecture_imports_the_generator():
    """Every subcommand but `conjecture` starts without importing deacp.gen."""
    done = run_python("-c", "import sys, deacp.cli; print('deacp.gen' in sys.modules)")
    assert (done.returncode, done.stdout, done.stderr) == (0, b"False\n", b"")


def test_json_identical_across_processes_and_hash_seeds(leak_file):
    # end-to-end determinism: separate interpreter runs with different hash
    # seeds must produce byte-identical machine output
    outputs = []
    for seed in ("1", "42"):
        done = run_cli("lts", leak_file, "--process", "P", "--json", hash_seed=seed)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("actions a\nproc P = a\n"))
    code, out, _ = run(capsys, "parse", "-")
    assert code == 0
    assert "proc P = a" in out


def test_full_workflow_on_one_file(capsys, tmp_path):
    path = tmp_path / "work.deacp"
    path.write_text(
        """
domain -16..15
vars i, j, q, r
map sigma { i = 11, j = 3 }
proc DIV = eval{sigma}(q := 0 . r := i . rec Q where {
    Q = [r >= j] -> q := q + 1 . R + [r < j] -> epsilon,
    R = [true] -> r := r - j . Q
})
proc CHAIN = q := 0 . r := 11 . q := 1 . r := 8 . q := 2 . r := 5 . q := 3 . r := 2
""",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "lts", str(path), "--process", "DIV")
    assert code == 0 and "states: 9" in out
    code, _, _ = run(capsys, "bisim", str(path), "--left", "DIV", "--right", "CHAIN")
    assert code == 0
    code, out, _ = run(capsys, "prove", str(path), "--left", "DIV", "--right", "CHAIN",
                       "--json")
    assert code == 0
    assert json.loads(out)["equal"] is True
    code, out, _ = run(capsys, "linearize", str(path), "--process", "DIV")
    assert code == 0 and out.startswith("rec ")


def test_counterexample_json_identical_across_hash_seeds(tmp_path):
    # the termination counterexample's map is the first terminating map in
    # map order, whatever the hash seed
    path = tmp_path / "term.deacp"
    path.write_text("vars x\nactions a\nproc L = [x >= 0] -> epsilon + a\nproc R = a\n",
                    encoding="utf-8")
    runs = [run_cli("bisim", str(path), "--left", "L", "--right", "R", "--json",
                     hash_seed=seed) for seed in ("0", "1", "3")]
    assert {done.returncode for done in runs} == {1}
    assert runs[0].stdout == runs[1].stdout == runs[2].stdout
    assert json.loads(runs[0].stdout)["counterexample"]["kind"] == "termination"


def test_dnii_json_identical_across_hash_seeds(leak_file):
    runs = [run_cli("dnii", leak_file, "--process", "P", "--json", hash_seed=seed)
            for seed in ("0", "1", "3")]
    assert {done.returncode for done in runs} == {1}
    assert runs[0].stdout == runs[1].stdout == runs[2].stdout
    payload = json.loads(runs[0].stdout)
    assert payload["holds"] is False and payload["pairs_checked"] == 4


def test_deep_nesting_exits_two_without_traceback(tmp_path):
    # `canonical` and the step rules recurse once per `.` level, so 5000 levels
    # exceed the stack
    path = tmp_path / "deep.deacp"
    path.write_text("actions a\nproc P = " + " . ".join(["a"] * 5000) + "\n",
                    encoding="utf-8")
    done = run_cli("bisim", str(path), "--left", "P", "--right", "P")
    assert done.returncode == 2
    assert done.stderr.decode().startswith("error:")
    assert "Traceback" not in done.stderr.decode()


@pytest.mark.parametrize("command", [
    ("bisim", "--left", "P", "--right", "P"),
    ("ab-bisim", "--left", "P", "--right", "P"),
    ("lts", "--process", "P"),
], ids=lambda command: command[0])
def test_long_sequence_explores(tmp_path, command):
    # Each target the step rules build is the one object in the context's
    # table that equals it, so the memo tables never compare two copies of
    # a 450-deep sequence field by field.
    path = tmp_path / "long.deacp"
    path.write_text("actions a\nproc P = " + " . ".join(["a"] * 450) + "\n",
                    encoding="utf-8")
    done = run_cli(command[0], str(path), *command[1:])
    assert (done.returncode, done.stderr) == (0, b"")


def test_long_silent_chain_explores(tmp_path):
    # 2000 silent steps in a row: the guardedness check peels the chain of
    # silent edges iteratively, where a depth-first search recursed per equation.
    chain = "".join(f"X{i} = [true] -> tau . X{i + 1},\n" for i in range(2000))
    path = tmp_path / "chain.deacp"
    path.write_text(f"actions a\nproc P = rec X0 where {{\n{chain}X2000 = [true] -> epsilon\n}}\n",
                    encoding="utf-8")
    done = run_cli("lts", str(path), "--process", "P")
    assert (done.returncode, done.stderr) == (0, b"")
    assert done.stdout.decode().startswith("states: 2001\n")


# `deacp lts --json` of an open guard under `vars y, x`: map entries sort by
# name, not in declaration order, and state 1 reads y alone.
YX_SPEC = ("domain 0..1\nvars y, x\nactions a, b, c\n"
           "proc G = [x > 0] -> a . ([y = 0] -> b) + [y > 0] -> c\n")
YX_LTS = {
    "domain": ["y", "x"],
    "root": 0,
    "states": ["[x > 0] -> a . ([y = 0] -> b) + [y > 0] -> c", "[y = 0] -> b", "epsilon"],
    "terminating": [{"map": {"x": x, "y": y}, "state": 2} for x in (0, 1) for y in (0, 1)],
    "transitions": [
        {"action": "c", "from": 0, "map": {"x": 0, "y": 1}, "to": 2},
        {"action": "a", "from": 0, "map": {"x": 1, "y": 0}, "to": 1},
        {"action": "a", "from": 0, "map": {"x": 1, "y": 1}, "to": 1},
        {"action": "c", "from": 0, "map": {"x": 1, "y": 1}, "to": 2},
        {"action": "b", "from": 1, "map": {"x": 0, "y": 0}, "to": 2},
        {"action": "b", "from": 1, "map": {"x": 1, "y": 0}, "to": 2},
    ],
}


def test_lts_json_of_unsorted_declarations_is_pinned(tmp_path):
    path = tmp_path / "yx.deacp"
    path.write_text(YX_SPEC, encoding="utf-8")
    expected = (json.dumps(YX_LTS, indent=2, sort_keys=True) + "\n").encode()
    for seed in ("0", "3"):
        done = run_cli("lts", str(path), "--process", "G", "--json", hash_seed=seed)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == expected


# Four variables of the default carrier have 32^4 = 1048576 maps, above the
# default bound of 10^6: each data term is tabulated over its own variables,
# and only when another action of the same kind and name needs comparing.
WIDE = ("vars x, a, b, c, d\nactions e\n"
        "proc P = x := a + b + c + d . e\n"
        "proc Q = x := a + b + c + d . e + x := d + c + b + a . e\n"
        "proc R = x := a + b + c + d . e + x := a + b + c . e\n")


@pytest.mark.parametrize("right, code, stdout, stderr", [
    ("P", 0, b"equivalent\n", b""),
    ("Q", 2, b"", b"error: enumeration of 1048576 evaluation maps exceeds the bound of 1000000\n"),
    ("R", 2, b"", b"error: enumeration of 1048576 evaluation maps exceeds the bound of 1000000\n"),
], ids=["same", "reordered", "narrower"])
def test_wide_assignments_are_tabulated_only_when_compared(tmp_path, right, code, stdout, stderr):
    path = tmp_path / "wide.deacp"
    path.write_text(WIDE, encoding="utf-8")
    done = run_cli("bisim", str(path), "--left", "P", "--right", right)
    assert (done.returncode, done.stdout, done.stderr) == (code, stdout, stderr)


# The guard reads four variables of the default carrier, too many to
# tabulate; the evaluation operator gives them values. An abstraction-free
# proof and linearization tabulate no condition, so both decide the pair.
WIDE_GUARD = ("domain -16..15\nvars p, q, r, s\nactions a\nmap m { p = 1 }\n"
              "proc L = eval{m}([p + q + r + s > 0] -> a)\n"
              "proc R = eval{m}([p + q + r + s > 0] -> a + [p + q + r + s > 0] -> a)\n")


def test_abstraction_free_proofs_tabulate_no_condition(capsys, tmp_path):
    path = tmp_path / "wide_guard.deacp"
    path.write_text(WIDE_GUARD, encoding="utf-8")
    for command, *names in (["bisim", "--left", "L", "--right", "R"],
                            ["prove", "--left", "L", "--right", "R"],
                            ["linearize", "--process", "L"], ["linearize", "--process", "R"]):
        code, out, err = run(capsys, command, str(path), *names)
        assert (code, err) == (0, ""), (command, names)
    spec = parse_spec(WIDE_GUARD)
    ctx = spec.context()
    result = prove_equal(spec.process("L"), spec.process("R"), ctx)
    assert replay_certificate(result.certificate, ctx) == (True, [])


# --data-lo and --data-hi replace the carrier's bounds while the file is
# parsed: a map's unmentioned variable gets its default in that carrier, and
# a literal or map value outside it is an input error.
OVERRIDE = ("domain -4..3\nvars i, j\nactions a/1\nmap sigma { i = 2 }\n"
            "proc P = eval{sigma}(a(j))\nproc R = eval{sigma}(a(i))\n")


@pytest.mark.parametrize("flags, process, label", [
    ([], "P", "a(0)"),
    (["--data-lo", "1"], "P", "a(1)"),
    (["--data-hi", "2"], "R", "a(2)"),
    (["--data-lo", "-1", "--data-hi", "2"], "R", "a(2)"),
])
def test_carrier_override_applies_while_parsing(capsys, tmp_path, flags, process, label):
    path = tmp_path / "override.deacp"
    path.write_text(OVERRIDE, encoding="utf-8")
    code, out, err = run(capsys, "lts", str(path), "--process", process, "--json", *flags)
    assert (code, err) == (0, "")
    assert [t["action"] for t in json.loads(out)["transitions"]] == [label]


@pytest.mark.parametrize("text, flags, message", [
    (OVERRIDE, ["--data-hi", "1"], "error: 4:13: value 2 outside carrier\n"),
    (OVERRIDE + "proc L = a(-4)\n", ["--data-lo", "-3"], "error: 7:12: literal -4 outside carrier\n"),
    (OVERRIDE, ["--data-lo", "4"], "error: 1:1: empty carrier [4, 3]\n"),
    ("vars i\n", ["--data-lo", "16"], "error: empty carrier [16, 15]\n"),
])
def test_carrier_override_rejects_values_outside_it(capsys, tmp_path, text, flags, message):
    path = tmp_path / "override.deacp"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "parse", str(path), *flags)
    assert (code, out, err) == (2, "", message)


# One bound may lie past the other default bound when the declared domain
# makes the range valid.
@pytest.mark.parametrize("domain, flags, carrier", [
    ("0..20", ["--data-lo", "16"], [16, 20]),
    ("-30..-10", ["--data-hi", "-20"], [-30, -20]),
])
def test_one_sided_override_uses_the_declared_domain(capsys, tmp_path, domain, flags, carrier):
    path = tmp_path / "override.deacp"
    path.write_text(f"domain {domain}\nvars i\nmap sigma {{}}\n", encoding="utf-8")
    code, out, err = run(capsys, "parse", str(path), "--json", *flags)
    payload = json.loads(out)
    assert (code, err) == (0, "")
    assert (payload["carrier"], payload["maps"]["sigma"]) == (carrier, {"i": carrier[0]})


def test_carrier_override_shows_in_parse_output(capsys, tmp_path):
    path = tmp_path / "override.deacp"
    path.write_text(OVERRIDE, encoding="utf-8")
    code, out, _ = run(capsys, "parse", str(path), "--json", "--data-lo", "1")
    payload = json.loads(out)
    assert code == 0
    assert (payload["carrier"], payload["maps"]["sigma"]) == ([1, 3], {"i": 2, "j": 1})
