"""Words over inverse-closed generator alphabets.

A :class:`Word` is an immutable sequence of signed generator letters stored
run-length encoded.  The ASCII syntax is lowercase = generator, uppercase =
formal inverse, with optional ``^k`` powers: ``"a^-3 t^2"``, ``"A^3t^2"`` and
``"AAAtt"`` all denote the same word.  Parsing never free-reduces; a word
remembers its exact letter sequence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator


class WordError(ValueError):
    """Malformed word text or letters outside the alphabet."""


@dataclass(frozen=True)
class GenAlphabet:
    """Named generators; inverses are implicit (uppercase letters)."""

    letters: tuple[str, ...]

    @cached_property
    def signed(self) -> dict[str, tuple[str, int]]:
        """Letter -> (generator, sign): +1 for lowercase, -1 for uppercase."""
        return {ch: (g, sign) for g in self.letters
                for ch, sign in ((g, 1), (g.upper(), -1))}


BS_ALPHABET = GenAlphabet(("a", "t"))
STALLINGS_ALPHABET = GenAlphabet(("a", "b", "c", "d", "s"))


class WordClass(Enum):
    """Coarse shape of a word over {a, t}, read off its t-sign runs."""

    E = "E"
    X = "X"
    N = "N"
    XN = "XN"
    P = "P"
    PX = "PX"
    NP = "NP"
    NPX = "NPX"
    XNP = "XNP"
    OTHER = "OTHER"


def _canonical_runs(runs: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    out: list[tuple[str, int]] = []
    for gen, exp in runs:
        if exp == 0:
            continue
        if out and out[-1][0] == gen and (out[-1][1] > 0) == (exp > 0):
            out[-1] = (gen, out[-1][1] + exp)
        else:
            out.append((gen, exp))
    return tuple(out)


@dataclass(frozen=True, slots=True)
class Word:
    """Run-length encoded word.  Adjacent runs of the same letter are merged
    only when they share a sign, so the letter sequence is stored losslessly
    (``a A`` stays two runs and is distinct from the empty word)."""

    runs: tuple[tuple[str, int], ...] = ()

    @staticmethod
    def from_runs(runs: Iterable[tuple[str, int]]) -> "Word":
        return Word(_canonical_runs(runs))

    def __len__(self) -> int:
        return sum(abs(e) for _, e in self.runs)

    def letters(self) -> Iterator[tuple[str, int]]:
        """Yield (generator, sign) letter by letter."""
        for gen, exp in self.runs:
            s = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                yield (gen, s)

    def __mul__(self, other: "Word") -> "Word":
        """Concatenation without free reduction."""
        if not self.runs:
            return other
        if not other.runs:
            return self
        return Word(_canonical_runs(self.runs + other.runs))

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.runs)))

    def prefix(self, n: int) -> "Word":
        """First n letters."""
        if n < 0 or n > len(self):
            raise ValueError(f"prefix length {n} out of range")
        out: list[tuple[str, int]] = []
        left = n
        for gen, exp in self.runs:
            if left == 0:
                break
            take = min(left, abs(exp))
            out.append((gen, take if exp > 0 else -take))
            left -= take
        return Word(tuple(out))

    def suffix(self, n: int) -> "Word":
        """Last n letters."""
        return self.inverse().prefix(n).inverse()

    def __str__(self) -> str:
        parts = []
        for gen, exp in self.runs:
            ch = gen if exp > 0 else gen.upper()
            k = abs(exp)
            parts.append(ch if k == 1 else f"{ch}^{k}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


# a run of one repeated letter; a power, if any, belongs to its last letter
_RUN_RE = re.compile(r"(([A-Za-z])\2*)(?:\^(-?[0-9]+))?")


def parse_word(text: str, alphabet: GenAlphabet = BS_ALPHABET) -> Word:
    """Parse ASCII word syntax.  Whitespace is ignored; the letter sequence is
    kept exactly as written (no free reduction)."""
    s = "".join(text.split())
    pos = 0
    runs: list[tuple[str, int]] = []
    signed = alphabet.signed
    for m in _RUN_RE.finditer(s):
        if m.start() != pos:
            break
        letters, ch, pw = m.groups()
        if ch not in signed:
            raise WordError(f"unknown letter {ch!r} (alphabet {alphabet.letters})")
        gen, sign = signed[ch]
        if pw is None:
            runs.append((gen, sign * len(letters)))
        else:
            exp = int(pw)
            if sign < 0 and exp < 0:
                raise WordError(
                    f"inverse letter {ch!r} takes a positive power, got {pw}")
            runs += ((gen, sign * (len(letters) - 1)), (gen, sign * exp))
        pos = m.end()
    if pos < len(s):
        raise WordError(f"malformed word at position {pos}: {s[pos:pos + 8]!r}")
    return Word(_canonical_runs(runs))


def gen_power(gen: str, exp: int) -> Word:
    """The word gen^exp (empty when exp = 0)."""
    return Word(((gen, exp),)) if exp else Word()


def free_reduce(w: Word) -> Word:
    """Delete inverse pairs until none remain."""
    stack: list[tuple[str, int]] = []
    for gen, exp in w.runs:
        cur = exp
        while cur and stack and stack[-1][0] == gen:
            cur += stack.pop()[1]
        if cur:
            stack.append((gen, cur))
    return Word(tuple(stack))


def exp_sum(w: Word, gen: str | None = None) -> int:
    """Total signed exponent sum, optionally of a single generator."""
    return sum(e for g, e in w.runs if gen is None or g == gen)


def sigma_t(w: Word) -> int:
    """Signed number of t letters."""
    return exp_sum(w, "t")


def classify(w: Word) -> WordClass:
    """Shape of a word over {a, t}: E, P, N, X and the concatenation classes,
    determined by the sign pattern of its t-runs plus the sigma_t constraint
    (NPX needs sigma_t >= 0, XNP needs sigma_t <= 0)."""
    pattern: list[int] = []
    for gen, exp in w.runs:
        if gen == "t":
            s = 1 if exp > 0 else -1
            if not pattern or pattern[-1] != s:
                pattern.append(s)
    sig = sigma_t(w)
    pat = tuple(pattern)
    if pat == ():
        return WordClass.E
    if pat == (1,):
        return WordClass.P
    if pat == (-1,):
        return WordClass.N
    if pat == (1, -1):
        if sig == 0:
            return WordClass.X
        return WordClass.PX if sig > 0 else WordClass.XN
    if pat == (-1, 1):
        return WordClass.NP
    if pat == (-1, 1, -1):
        return WordClass.NPX if sig >= 0 else WordClass.OTHER
    if pat == (1, -1, 1):
        return WordClass.XNP if sig <= 0 else WordClass.OTHER
    return WordClass.OTHER
