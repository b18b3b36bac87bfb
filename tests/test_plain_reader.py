"""`cli._read_plain` against argparse: both read `cli.COMMANDS`, and must agree.

Wherever the reader answers, its namespace holds what argparse's does;
wherever argparse exits (a usage error, or help), the reader declines.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phcalc import cli

PARSER = cli._build_parser()

FLAGS = sorted({flag for _, _, arguments, _ in cli.COMMANDS.values()
                for flags, *_ in arguments for flag in flags if flag[0] == "-"})
VALUES = ["0", "-0", "-3", "001", "x", "inf", "-", "", "text", "json", "svg", "1,2",
          "--", "-h", "--all", "--format=json", "-n1", "f.json"]
WORDS = sorted(cli.COMMANDS) + FLAGS + VALUES


def _argparse(argv: list[str]) -> dict | None:
    """argparse's namespace for ``argv`` as a dict, or None where it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


# every subcommand in its plain form: every option spelled in full, with its value
CANONICAL = [
    ["betti", "f.json", "-n", "1"],
    ["pbetti", "f.json", "--incremental", "-n", "1", "-j", "0", "-p", "2"],
    ["mu", "-n", "1", "f.json", "--birth", "0", "-p", "inf"],
    ["barcode", "f.json", "--all-dims", "--format", "json", "-o", "-"],
    ["barcode", "--dim", "0", "f.json"],
    ["check", "f.json", "--max-dim", "001", "--oracle"],
    ["gen", "-t", "3", "-l", "2", "--seed", "5", "-v", "9", "--output", "out.json"],
    ["bench", "-t", "1,2", "-l", "3", "-s", "0"],
]


@st.composite
def _near_plain(draw) -> list[str]:
    """A plain form from CANONICAL with up to two slips, each a word of the pool put
    in place of a word or before it, or a word dropped; never the subcommand."""
    argv = list(draw(st.sampled_from(CANONICAL)))
    for _ in range(draw(st.sampled_from((0, 1, 1, 2)))):
        k = draw(st.integers(1, len(argv)))
        slip = draw(st.sampled_from(("replace", "insert", "drop")))
        if slip == "insert" or k == len(argv):
            argv.insert(k, draw(st.sampled_from(WORDS)))
        elif slip == "replace":
            argv[k] = draw(st.sampled_from(WORDS))
        else:
            del argv[k]
    return argv


def _agree(argv: list[str]) -> None:
    plain = cli._read_plain(argv)
    if plain is not None:
        assert vars(plain) == _argparse(argv)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(_near_plain())
@example(["barcode", "f.json"])
@example(["barcode", "f.json", "-n", "0", "--all-dims"])
@example(["barcode", "f.json", "--all-dims", "--all-dims"])
@example(["barcode", "--all-dims", "--"])
@example(["barcode", "f.json", "--all-dims", "-o"])
@example(["gen", "-t", "3", "-l", "2", "-s", "-3"])
def test_the_reader_answers_near_the_plain_form_only_as_argparse_does(argv):
    _agree(argv)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from(WORDS), max_size=8))
def test_the_reader_answers_any_words_only_as_argparse_does(argv):
    _agree(argv)


@pytest.mark.parametrize("argv", CANONICAL, ids=lambda argv: argv[0])
def test_the_reader_takes_each_subcommands_plain_form(argv):
    plain = cli._read_plain(argv)
    assert plain is not None
    assert vars(plain) == _argparse(argv)


@pytest.mark.parametrize("argv", [
    ["barcode", "f.json", "--all"],
    ["barcode", "f.json", "--format=json", "--all-dims"],
    ["barcode", "f.json", "-n0"],
    ["barcode", "--all-dims", "--", "f.json"],
    ["pbetti", "f.json", "-n", "-0", "-j", "0", "-p", "1"],
    ["gen", "-t", "3", "-l", "2", "-s", "-3"],
], ids=" ".join)
def test_the_reader_declines_other_spellings_that_argparse_takes(argv):
    assert cli._read_plain(argv) is None
    assert _argparse(argv) is not None
