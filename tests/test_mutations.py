"""Seeded mutation test of the command line on damaged input files.

Mutants of the bars workspace's config and of the model, bundle and
fields files its pipeline writes go through ``cli.main``: ``pipeline`` for
the config, ``eval --model`` for the model and ``inspect`` for the other
two.  Each one must run, or fail with exit status 1 and an ``[<stage>]
error:`` line that names the damaged file, without a traceback.
"""

from __future__ import annotations

import random

from meip import cli

SEED = 11
MUTANTS = 1500
TOKENS = ("nan", "inf", "-1", "0", "1e308", "x", "", "#")


def mutate(text: str, rng: random.Random) -> tuple[str, str, int]:
    """One random mutant of ``text``: returns it, the operator's name and
    the 1-based line it touched (0 for a truncation)."""
    lines = text.splitlines(keepends=True)
    op = rng.choice(("delete", "duplicate", "swap", "replace", "insert",
                     "truncate"))
    i = rng.randrange(len(lines))
    if op == "truncate":
        return text[:rng.randrange(len(text))], op, 0
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "swap":
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    else:
        toks = lines[i].split()
        k = rng.randrange(len(toks) + (op == "insert"))
        toks[k:k + (op == "replace")] = [rng.choice(TOKENS)]
        lines[i] = " ".join(toks) + "\n"
    return "".join(lines), op, i + 1


def test_damaged_inputs_fail_naming_the_file(bars_workspace, capsys):
    ws = bars_workspace
    cfg, out = ws / "run.cfg", ws / "out"
    assert cli.main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
    mutated = ws / "mutated"
    mutated.mkdir()
    # the model's bundle reference is relative to its directory, so its
    # mutants replace out/model.txt next to the intact out/axes.txt
    targets = {
        "run.cfg": (cfg, ["pipeline", "--config", str(cfg),
                          "--out", str(ws / "pipe")]),
        "model.txt": (out / "model.txt",
                      ["eval", "--config", str(ws / "intact.cfg"),
                       "--model", str(out / "model.txt"),
                       "--out", str(ws / "eval")]),
        "axes.txt": (mutated / "axes.txt",
                     ["inspect", str(mutated / "axes.txt"),
                      "--out", str(ws / "inspect")]),
        "fields_3v7_u_minus_v.txt": (
            mutated / "fields_3v7_u_minus_v.txt",
            ["inspect", str(mutated / "fields_3v7_u_minus_v.txt"),
             "--out", str(ws / "inspect")]),
    }
    (ws / "intact.cfg").write_text(cfg.read_text())
    originals = {name: (out / name if name != "run.cfg" else cfg).read_text()
                 for name in targets}
    capsys.readouterr()

    rng = random.Random(SEED)
    faults = []
    for n in range(MUTANTS):
        name = list(targets)[n % len(targets)]
        path, argv = targets[name]
        text, op, line = mutate(originals[name], rng)
        path.write_text(text)
        status = cli.main(argv)
        err = capsys.readouterr().err
        errors = [e for e in err.splitlines() if e.startswith(f"[{argv[0]}] "
                                                              "error: ")]
        where = f"{name} {op} line {line}"
        if status not in (0, 1) or "Traceback" in err:
            faults.append(f"{where}: exit {status}: {err}")
        elif status == 1 and not (errors and name in errors[0]):
            faults.append(f"{where}: error names no {name}: {err}")
        elif (status == 1 and name == "model.txt" and line == 2
              and op in ("replace", "insert") and "model.txt:2" not in err):
            faults.append(f"{where}: the bundle line is not named: {err}")
    assert not faults, "\n".join(faults)
