"""Plain Fraction-table references for the cylinder kernels.

A function here is a list of 2^d Fractions: its value on the cylinder of
each word of d symbols, the word read as a binary number with the first
symbol highest.  Every function works word by word on the Fractions in
their own arithmetic, and weighs a word by p^ones (1 - p)^zeros itself,
so that the tests compare the program's integer kernels with code that
shares none of their logic."""

import math
from fractions import Fraction


def depth(t):
    """The number of symbols t reads."""
    return len(t).bit_length() - 1


def types(t):
    """The type of every entry."""
    return [type(v) for v in t]


def at(t, word):
    """t on the words that begin with `word` (at least depth(t) symbols)."""
    d = depth(t)
    return t[int(word[:d], 2) if d else 0]


def words(d):
    """Every word of d symbols, in table order."""
    return [format(w, f"0{d}b") if d else "" for w in range(1 << d)]


def mass(word, p):
    """The Bernoulli(p) mass of the cylinder of `word`."""
    ones = word.count("1")
    return p ** ones * (1 - p) ** (len(word) - ones)


def integral(t, p):
    """The Bernoulli(p) expectation, summed word by word."""
    return sum((mass(w, p) * v for w, v in zip(words(depth(t)), t)),
               Fraction(0))


def lift(t, d):
    """t read on the words of d >= depth(t) symbols."""
    return [at(t, w) for w in words(d)]


def pointwise(t, u, op):
    """op of t and u on the words of the deeper one."""
    d = max(depth(t), depth(u))
    return [op(at(t, w), at(u, w)) for w in words(d)]


def clamp(t, m):
    return [max(-m, min(m, v)) for v in t]


def sup(t):
    return max(abs(v) for v in t)


def window_read(t, k):
    """(den, [den t on the words of k symbols]), den the least common
    denominator of t's values."""
    den = math.lcm(*[v.denominator for v in t])
    return den, [int(at(t, w) * den) for w in words(k)]


def running_sum(t, n):
    """S_n t = sum_{i<n} t o sigma^i on the words of n + depth(t) - 1
    symbols, word by word."""
    d = depth(t)
    return [sum((at(t, w[i:]) for i in range(n)), Fraction(0))
            for w in words(n + d - 1)]


def average(t, n):
    """A_n t = S_n t / n, word by word."""
    return [s / n for s in running_sum(t, n)]


def window_mass(t, p, window, delta):
    """mu{max over n in window of |A_n t| > delta}: one flag per word of
    each running sum, ORed down into the words of the next, and the
    flagged words of the last weighed one by one (the enumeration the
    shift's window masses ran before its partial-sum law)."""
    hit, d = [False], 0
    for n in window:
        sums = running_sum(t, n)
        up = depth(sums) - d
        hit = [hit[w >> up] or abs(s) > n * delta
               for w, s in enumerate(sums)]
        d += up
    return sum((mass(w, p) for w, h in zip(words(d), hit) if h),
               Fraction(0))
