"""Seeded stream of one-off CLI queries for the ``query_mix`` workload.

Every query is an argv list for ``ncdeform.cli.main``; the program sees only
that argv.  Each query draws a fresh rational parameter set, so nearly every
query pays a cold engine and Hopf-cache build, as a user typing one command
at a time does.

The stream is stratified so that two seeds do about the same amount of
work: each block holds one query per (command, truncation) pair, and the
operand degree of each pair cycles through its allowed range over the
blocks.  The seed chooses the generators, factor order, coefficients,
parameters, directions and the order of queries inside a block.
``staroracle``, the slowest query, runs in every other block only.  It is
then 2% of the stream, so p99 falls inside its cost range rather than at an
edge between two kinds of query, where it would jump from seed to seed.

Bounds that keep every query interactive (each measured cold on a 2-CPU
sandbox, Python 3.11):

* Primal operands have generator degree <= 4.
* ``coproduct`` takes operands of degree <= 5 - trunc.  A degree-4 monomial
  in four distinct non-central generators costs about 1 s at trunc 3 and
  0.23 s at trunc 2.
* ``staroracle`` runs only on ``x_i x_j`` at trunc 1 (about 0.16 s).  At
  trunc 2 the same query takes 11-18 s, and larger operands cost far more.
  Bounding the oracle's input is left to the program itself.
"""

from __future__ import annotations

import random
from fractions import Fraction

COMMANDS = ("mul", "comm", "coproduct", "antipode", "phi", "zbasis",
            "star", "staroracle", "poisson")
TRUNCS = (1, 2, 3)
GENERATORS = ("Th", "Ph", "Ps", "Q1", "Q2", "P1", "P2")
MAX_DEGREE = 4
BLOCKS = 96


def max_degree(command: str, trunc: int) -> int:
    """Largest operand degree (generator degree, or dual index norm)."""
    if command == "coproduct":
        return min(MAX_DEGREE, 5 - trunc)
    if command in ("star", "poisson"):
        return 3
    if command == "staroracle":
        return 1
    return MAX_DEGREE


def _rational(rng: random.Random, nonzero: bool) -> Fraction:
    num = rng.randint(-9, 9)
    while nonzero and num == 0:
        num = rng.randint(-9, 9)
    return Fraction(num, rng.randint(1, 9))


def _coefficient(rng: random.Random) -> str:
    # A leading minus would make argparse read the operand as an option.
    c = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    return "" if c == 1 else f"{c}*"


def _primal(rng: random.Random, degree: int) -> str:
    factors = [rng.choice(GENERATORS) for _ in range(degree)]
    return _coefficient(rng) + "*".join(factors)


def _dual(rng: random.Random, norm: int) -> str:
    w, y = [0, 0, 0], [0, 0, 0, 0]
    for _ in range(norm):
        k = rng.randrange(7)
        if k < 3:
            w[k] += 1
        else:
            y[k - 3] += 1
    parts = []
    if any(w):
        parts.append("W[%d,%d,%d]" % tuple(w))
    if any(y):
        parts.append("Y[%d,%d,%d,%d]" % tuple(y))
    return _coefficient(rng) + "*".join(parts)


def _query(rng: random.Random, command: str, trunc: int,
           degree: int) -> list[str]:
    if command == "staroracle":
        operands = [f"x{rng.randint(1, 7)}", f"x{rng.randint(1, 7)}"]
    elif command in ("star", "poisson"):
        operands = [_dual(rng, degree), _dual(rng, rng.randint(1, degree))]
    elif command in ("mul", "comm"):
        operands = [_primal(rng, degree), _primal(rng, rng.randint(1, degree))]
    else:
        operands = [_primal(rng, degree)]
    # "--alpha -3/2" fails: argparse does not take "-3/2" for a negative
    # number, so it reads it as an option.  The "--alpha=-3/2" form binds
    # the value to its flag whatever its sign.
    argv = [command, *operands,
            f"--alpha={_rational(rng, True)}",
            f"--beta={_rational(rng, False)}",
            f"--gamma={_rational(rng, False)}",
            f"--trunc={trunc}"]
    if command == "poisson":
        argv.append(f"--dir={rng.randint(1, 3)}")
    return argv


def generate(seed: int) -> list[list[str]]:
    """The query stream for one seed: ``BLOCKS`` blocks of one query per
    (command, trunc) pair; ``staroracle`` only at trunc 1 and in even
    blocks."""
    rng = random.Random(seed)
    pairs = [(c, t) for c in COMMANDS for t in TRUNCS
             if c != "staroracle" or t == 1]
    degrees = {}
    for pair in pairs:
        top = max_degree(*pair)
        cycle = [1 + b % top for b in range(BLOCKS)]
        rng.shuffle(cycle)
        degrees[pair] = cycle
    stream = []
    for b in range(BLOCKS):
        block = [_query(rng, c, t, degrees[(c, t)][b]) for c, t in pairs
                 if c != "staroracle" or b % 2 == 0]
        rng.shuffle(block)
        stream.extend(block)
    return stream
