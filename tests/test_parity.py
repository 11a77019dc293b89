"""tools/parity.py on synthetic records, no subprocess: what it reports, and
that its invocation list, the only one CI runs, covers the CLI."""

import importlib.util
from pathlib import Path

from airybeam import cli

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity)

_TRACEBACK = ('Traceback (most recent call last):\n'
              '  File "<src>/airybeam/cli.py", line 1, in main\n'
              'ValueError: boom\n')


def _record(code=0, stderr=""):
    return {"exit code": code, "stdout": "", "stderr": stderr,
            "modules loaded": "100", "files": {"out/x.csv": "0" * 64}}


def _report(monkeypatch, capsys, call, record):
    """parity.main over one call whose record is the same on both trees."""
    monkeypatch.setattr(parity, "calls", lambda: [call])
    monkeypatch.setattr(parity, "run", lambda tree, c: record)
    code = parity.main([str(ROOT), str(ROOT)])
    return code, capsys.readouterr().out


def test_a_record_as_expected_passes(monkeypatch, capsys):
    call = parity.Call(("detector-image", "--n", "0", "-o", "empty.pgm"), exit=1)
    code, out = _report(monkeypatch, capsys, call,
                        _record(1, "airybeam: error: --n must be >= 1\n"))
    assert code == 0, out
    assert "no failure, no difference" in out


def test_an_unexpected_exit_code_both_trees_share_is_reported(monkeypatch, capsys):
    call = parity.Call(("atom-laser", "--n", "21", "-o", "al.csv"))
    code, out = _report(monkeypatch, capsys, call,
                        _record(1, "airybeam: error: no data rows\n"))
    assert code == 1
    assert "FAIL atom-laser --n 21 -o al.csv: exit code 1, expected 0" in out
    assert "DIFF" not in out


def test_a_traceback_on_stderr_is_reported(monkeypatch, capsys):
    # its exit code is the expected one: only the traceback gives it away
    call = parity.Call(("detector-image", "--n", "0", "-o", "empty.pgm"), exit=1)
    code, out = _report(monkeypatch, capsys, call, _record(1, _TRACEBACK))
    assert code == 1
    assert "FAIL detector-image --n 0 -o empty.pgm: traceback on stderr" in out
    assert "ValueError: boom" in out
    assert "exit code" not in out


def test_only_the_usage_error_and_the_rejected_input_expect_a_failure():
    failing = {c.argv: c.exit for c in parity.calls() if c.exit}
    assert failing == {("total-current", "--emin", "5", "-o", "bare.csv"): 2,
                       ("total-current", "--config", "bogus.json", "-o", "bogus.csv"): 2,
                       ("total-current", "--config", "list.json", "-o", "list.csv"): 2,
                       ("total-current", "--preset", "s-minus", "--width", "1um",
                        "-o", "width.csv"): 2,
                       ("detector-image", "--n", "0", "-o", "empty.pgm"): 1,
                       ("total-current", "--n", "100000000000000000000", "-o", "huge.csv"): 1,
                       ("detector-image", "--n", "2000000000", "-o", "huge.pgm"): 1}


def _subcommand_formats():
    """Each (subcommand, --format choice) of the parser; (subcommand, None)
    for one without ``--format``."""
    for name, sp in cli.build_parser().commands.items():
        formats = next((a.choices for a in sp._actions if "--format" in a.option_strings),
                       (None,))
        for fmt in formats:
            yield name, fmt


def test_every_subcommand_and_format_is_in_the_invocation_list(capsys):
    parser = cli.build_parser()
    covered = set()
    for call in parity.calls():
        try:
            args = parser.parse_args(call.argv)
        except SystemExit:          # --version, --help and the usage error
            continue
        covered.add((args.command, getattr(args, "format", None)))
    capsys.readouterr()
    wanted = set(_subcommand_formats())
    assert len(wanted) >= 11
    assert wanted <= covered, sorted(wanted - covered)


def _unit_suffixes(call, parser):
    """Each (unit kind, suffix) one invocation gives a flag, the kind read
    from the flag's argparse type."""
    commands = parser.commands
    if not call.argv or call.argv[0] not in commands:
        return
    kinds = {getattr(cli, f"_{kind}"): kind for kind in cli._UNITS}
    types = {option: action.type for action in commands[call.argv[0]]._actions
             for option in action.option_strings}
    for flag, text in zip(call.argv, call.argv[1:]):
        kind = kinds.get(types.get(flag))
        match = cli._UNIT_RE.match(text)
        if kind is not None and match:          # not the bare-number usage error
            yield kind, match.group(2)


def test_every_unit_suffix_is_in_the_invocation_list():
    parser = cli.build_parser()
    covered = {pair for call in parity.calls() for pair in _unit_suffixes(call, parser)}
    wanted = {(kind, suffix) for kind, factors in cli._UNITS.items() for suffix in factors}
    assert len(wanted) == 22
    assert wanted <= covered, sorted(wanted - covered)
