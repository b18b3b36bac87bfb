"""Byte-identity gate: pinned CLI output on small generated filtrations.

Each case runs the CLI in-process and compares the sha256 of stdout
and the exit code with values recorded from a known-good build.  A
refactor that changes any byte of `barcode` or `check` output, or the
error text and exit code for a non-nested file, fails here.  To pin a
deliberate output change, print `_digest(...)` for the affected case
and update the table in the same change that alters the output.
"""

from __future__ import annotations

import hashlib

import pytest

from phcalc.cli import main

INPUTS = {
    "t60-l6-s1": ["-t", "60", "-l", "6", "-s", "1"],
    "t30-l15-s2": ["-t", "30", "-l", "15", "-s", "2"],
}

COMMANDS = {
    "barcode-text": ["barcode", "--all-dims", "--format", "text"],
    "barcode-json": ["barcode", "--all-dims", "--format", "json"],
    "barcode-svg": ["barcode", "--all-dims", "--format", "svg"],
    "check": ["check"],
}

# (input, command) -> (exit code, sha256 of stdout)
GOLDEN = {
    ("t60-l6-s1", "barcode-text"):
        (0, "52b8fea7f58d4a992bae4de3c75c82f8cfe5c35e1c7db458181aad51cd9ac339"),
    ("t60-l6-s1", "barcode-json"):
        (0, "5975e4d4d96bc349639eed798e0f5757b045d8797bcabefbdda25a8719b377b1"),
    ("t60-l6-s1", "barcode-svg"):
        (0, "9408c142fdaec28ee98404460be6f8434405e13bad944395bfeeeb96e40fe7a3"),
    ("t60-l6-s1", "check"):
        (0, "c39d3612c756c7bfbdb300b2f14e8e64de4e6bff614023a86ee6b63020c1a950"),
    ("t30-l15-s2", "barcode-text"):
        (0, "21b6dc67bf9cdef9cfac3033f95a6a93cd5a598f009c2de6e11bdb87ffe4e0d8"),
    ("t30-l15-s2", "barcode-json"):
        (0, "4d71c0853430fecf9a2c9bf69c04f1ac4e3a5f071d1c96564bea6e1931f9d420"),
    ("t30-l15-s2", "barcode-svg"):
        (0, "1f7067c98628c52375b9020fc0d5aa71178c9d9d0fc3280705894d17d5355e38"),
    ("t30-l15-s2", "check"):
        (0, "c39d3612c756c7bfbdb300b2f14e8e64de4e6bff614023a86ee6b63020c1a950"),
}

# sha256 of the `gen` output each input is drawn from
GEN_DIGESTS = {
    "t60-l6-s1": "a082b73a13b6357ca822e30b209790123d2364d84c036c443de84e7c536a9dd4",
    "t30-l15-s2": "ec486002f386973664272d8335b5953b7646bb30cf8e976e974824595542b592",
}

NON_NESTED = {
    '{"levels": [[[0,1]], [[2,3]]]}':
        "phcalc: error: simplex (0) of level 0 missing from level 1\n",
    '{"levels": [[[0,1,2]], [[0,1],[1,2]]]}':
        "phcalc: error: simplex (0,1,2) of level 0 missing from level 1\n",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """Each input written once by `phcalc gen`; name -> path."""
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, args in INPUTS.items():
        path = root / f"{name}.json"
        assert main(["gen", *args, "-o", str(path)]) == 0
        paths[name] = path
    return paths


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_gen_output_pinned(generated, name):
    assert _digest(generated[name].read_text()) == GEN_DIGESTS[name]


@pytest.mark.parametrize("key", sorted(GOLDEN), ids="/".join)
def test_cli_output_pinned(generated, capsys, key):
    name, command = key
    subcommand, *options = COMMANDS[command]
    code = main([subcommand, str(generated[name]), *options])
    out = capsys.readouterr().out
    assert (code, _digest(out)) == GOLDEN[key]


@pytest.mark.parametrize("command", ["barcode-text", "check"])
@pytest.mark.parametrize("text", sorted(NON_NESTED))
def test_non_nested_error_pinned(tmp_path, capsys, text, command):
    path = tmp_path / "bad.json"
    path.write_text(text)
    subcommand, *options = COMMANDS[command]
    code = main([subcommand, str(path), *options])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", NON_NESTED[text])
