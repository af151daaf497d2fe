"""Seeded input fuzzer: mutated bundled `.alg` and `.rep` files through `cli.main`.

Each case deletes, duplicates or swaps a line, or deletes, duplicates,
inserts or replaces a token, in one bundled file, and runs one subcommand
that reads it.  Every case must exit 0, 1 or 2 without an exception, and
every exit 2 must print a message that names a line, an option or the
mutated input file itself.
The seed and the case count are fixed, so a failure reproduces.
"""

import random
import re
from importlib import resources

from tiltrig.cli import main

DATA = resources.files("tiltrig").joinpath("data")
ALGEBRAS = ("sl2block.alg", "ce3.alg")
REP, REP_ALGEBRA = "sl2_P1.rep", "sl2block.alg"
SEED, CASES = 24, 600

# tokens the mutations insert, besides those of the bundled files
JUNK = ["0", "1", "2", "3", "4", "-1", "7", "1/2", "1/0", "x", "a.a", "b.a.b", "*", "=", "<", "+", "#", "2*a.b"]
JUNK += ["field", "vertex", "order", "arrow", "relation", "duality", "algebra", "dim", "map"]


def _mutate(rng, text, pool):
    lines = text.splitlines()
    k = rng.randrange(len(lines))
    kind = rng.choice(["delete line", "duplicate line", "swap lines", "token"] + ["token"] * 3)
    if kind == "delete line":
        del lines[k]
    elif kind == "duplicate line":
        lines.insert(k, lines[k])
    elif kind == "swap lines":
        j = rng.randrange(len(lines))
        lines[k], lines[j] = lines[j], lines[k]
    else:
        tokens = lines[k].split() or [""]
        i = rng.randrange(len(tokens))
        edit = rng.choice(["delete", "duplicate", "insert", "replace"])
        if edit == "delete":
            del tokens[i]
        elif edit == "duplicate":
            tokens.insert(i, tokens[i])
        elif edit == "insert":
            tokens.insert(i, rng.choice(pool))
        else:
            tokens[i] = rng.choice(pool)
        lines[k] = " ".join(tokens)
    return "\n".join(lines) + "\n"


_LOCATED = re.compile(r"\blines? \d+|--weight|--field")


def _located(message, path):
    """Names a line, an option or the input file itself; a file beside it is not enough."""
    return bool(_LOCATED.search(message)) or str(path) in message


def test_mutated_inputs_exit_cleanly_with_located_messages(tmp_path, capsys):
    texts = {name: DATA.joinpath(name).read_text(encoding="utf-8") for name in ALGEBRAS + (REP,)}
    pool = sorted({tok for text in texts.values() for tok in text.split()} | set(JUNK))
    rng = random.Random(SEED)
    exits = []
    for case in range(CASES):
        target = rng.choice(ALGEBRAS + (REP,))
        folder = tmp_path / str(case)
        folder.mkdir()
        path = folder / target
        path.write_text(_mutate(rng, texts[target], pool), encoding="utf-8")
        if target == REP:
            (folder / REP_ALGEBRA).write_text(texts[REP_ALGEBRA], encoding="utf-8")
            argv = rng.choice([["module", "series", str(path)], ["module", "series", str(path), "--type", "socle"], ["render", str(path)]])
        else:
            weight = rng.choice(["1", "2", "3", "4"])
            argv = rng.choice(
                [
                    ["algebra", "check", str(path)],
                    ["qh", "verify", str(path)],
                    ["tilting", "build", str(path), "--weight", weight],
                    ["rigidity", "check", str(path), "--weight", weight],
                ]
            )
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (case, argv)
        if code == 2:
            assert _located(err, path), (case, argv, path.read_text(encoding="utf-8"), err)
        exits.append(code)
    # the mutations reach every outcome
    assert set(exits) == {0, 1, 2}
