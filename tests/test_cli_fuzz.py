"""A seeded fuzz of the command line over mutated corpus sources.

Each case mutates one corpus source by one or two token edits (a changed
number, variable or operator, a dropped token, a repeated run of tokens) and
runs it through one of `eval`, `crosscheck --node-cap 3000` and `export-mdp`,
each with a small budget.
Whatever the mutation did, the run must end in exit 0, in exit 2 with a
message, or (for `crosscheck` only) in exit 1 with a failed check in its
report; never in an exception or a traceback.
"""
import random
import re

from ertkit.cli import main
from ertkit.corpus import ENTRIES
from ertkit.parser import _KEYWORDS

CASES = 200
SEED = 2016

_TOKEN = re.compile(r"\s+|//[^\n]*|\d+|[A-Za-z_]\w*|:~|:=|<=|>=|!=|\.\.|.", re.S)
_SWAPS = [
    ["<=", "<", ">", ">=", "=", "!="],
    ["+", "-", "*"],
    ["true", "false"],
    [":=", ":~"],
    ["and", "or"],
    ["while", "if"],
    ["(", "{", "["],
    [")", "}", "]"],
]
# small depths and caps keep the infinite models of `race` and `rwalk` and
# their mutants cheap, so the 200 cases take about 2 s
_COMMANDS = [
    ["eval", "--depth", "8"],
    ["crosscheck", "--node-cap", "3000", "--depth", "8", "--fallback-depth", "4"],
    ["export-mdp", "--node-cap", "1000"],
]


def _mutate(rng, source):
    toks = [t for t in _TOKEN.findall(source) if not t.isspace()]
    names = sorted(
        {t for t in toks if re.fullmatch(r"[A-Za-z_]\w*", t) and t not in _KEYWORDS}
    ) + ["z"]
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(toks))
        t, roll = toks[i], rng.random()
        swaps = [g for g in _SWAPS if t in g]
        if t.isdigit() and roll < 0.8:
            toks[i] = str(rng.choice([0, 1, 2, 3, 5, int(t) + 1, max(0, int(t) - 1)]))
        elif t in names and roll < 0.8:
            toks[i] = rng.choice(names)
        elif swaps and roll < 0.8:
            toks[i] = rng.choice(swaps[0])
        elif roll < 0.9:
            del toks[i]
        else:
            toks[i:i] = toks[i:i + rng.randint(1, 6)]
    return " ".join(toks)


def test_mutated_corpus_sources_never_crash(tmp_path, capsys):
    rng = random.Random(SEED)
    names = sorted(ENTRIES)
    path = tmp_path / "mutant.pp"
    codes = {}
    for k in range(CASES):
        entry = ENTRIES[names[k % len(names)]]
        command = _COMMANDS[(k // len(names)) % len(_COMMANDS)]
        source = _mutate(rng, entry.source())
        path.write_text(source)
        argv = [command[0], str(path), *command[1:]]
        if entry.state:
            argv += ["--state", ",".join(f"{n}={v}" for n, v in entry.state.items())]
        code = main(argv)
        out, err = capsys.readouterr()
        case = f"{' '.join(argv)}\n{source}\n{err}"
        assert "Traceback" not in out + err, case
        if code == 2:
            assert "error: " in err, case
        elif code == 1:
            assert command[0] == "crosscheck" and "fail" in out, case
        else:
            assert code == 0, case
        codes[command[0], code] = codes.get((command[0], code), 0) + 1
    # the mutants reach every command both as valid and as invalid programs
    for command, *_ in _COMMANDS:
        assert codes.get((command, 0), 0) >= 10 and codes.get((command, 2), 0) >= 10, codes
