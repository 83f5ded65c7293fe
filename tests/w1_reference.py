"""Plain Fraction references for the exact W1 kernels.

The two couplings here work on the points in their own form: the circle
sweep sorts Fraction positions, takes Fraction step lengths and finds the
weighted median against 1/2; the Cantor walk pads every word to the
longest one and settles the trie of the padded words level by level,
every node at every level, passing the remainders of each node up to its
parent in word order.  The value is the Fraction sum of flow times
distance, each distance from its own definition.  The tests compare the
program's integer kernels with these, plan for plan and value for
value."""

from collections import Counter, deque
from fractions import Fraction
from math import lcm


def circle_dist(x: Fraction, y: Fraction) -> Fraction:
    """Arc metric on [0,1)."""
    t = (x - y) % 1
    return min(t, 1 - t)


def cantor_dist(u: str, v: str) -> Fraction:
    """2^-(first differing index) on zero-padded words."""
    n = max(len(u), len(v))
    u, v = u.ljust(n, "0"), v.ljust(n, "0")
    for i in range(n):
        if u[i] != v[i]:
            return Fraction(1, 1 << i)
    return Fraction(0)


def circle_transport(src: list, snk: list) -> dict:
    """{(i, j): flow} of the monotone rearrangement cut at the lowest
    weighted median of the CDF difference, over Fraction positions."""
    pts = sorted((Fraction(x) % 1, s, k, w)
                 for s, atoms in enumerate((src, snk))
                 for k, (x, w) in enumerate(atoms))
    xs = [x for x, *_ in pts]
    steps, f = [], 0
    for (x, s, _, w), nxt in zip(pts, xs[1:] + [xs[0] + 1]):
        f += -w if s else w
        steps.append((f, nxt - x))
    acc = 0
    for alpha, length in sorted(steps):
        acc += length
        if 2 * acc >= 1:
            break
    total = sum(w for _, w in src)
    starts, cuts = [0, alpha], []
    for _, s, k, w in pts:
        cuts.append((starts[s] % total, s, k))
        starts[s] += w
    cuts.sort()
    cur = [None, next(k for _, s, k in reversed(cuts) if s)]
    flows, prev = Counter(), 0
    for c, s, k in cuts + [(total, 0, None)]:
        if c > prev:
            flows[tuple(cur)] += c - prev
            prev = c
        cur[s] = k
    return flows


def cantor_transport(src: list, snk: list) -> dict:
    """{(i, j): flow} of the greedy matching in the trie of the padded
    words, every node of every level settled bottom-up."""
    depth = max(len(w) for w, _ in src + snk)
    nodes = {}
    for s, atoms in enumerate((src, snk)):
        for k, (w, m) in enumerate(atoms):
            nodes.setdefault(w.ljust(depth, "0"),
                             (deque(), deque()))[s].append([k, m])
    nodes = dict(sorted(nodes.items()))
    flows = {}
    for d in range(depth, -1, -1):
        up = {}
        for key, (a, b) in nodes.items():
            while a and b:
                t = min(a[0][1], b[0][1])
                flows[a[0][0], b[0][0]] = t
                for r in (a, b):
                    r[0][1] -= t
                    if not r[0][1]:
                        r.popleft()
            rest = up.setdefault(key[:d - 1], (deque(), deque()))
            rest[0].extend(a)
            rest[1].extend(b)
        nodes = up
    return flows


def w1(space_name: str, mu1, mu2):
    """(value, [[i, j, "flow"], ...]) of two IdealMeasures, the plan in
    the JSON form of `TransportPlan.to_json`."""
    transport, dist = {"circle": (circle_transport, circle_dist),
                       "cantor": (cantor_transport, cantor_dist)}[space_name]
    lw = lcm(*(w.denominator for _, w in mu1.atoms + mu2.atoms))
    src, snk = ([(p, w.numerator * (lw // w.denominator)) for p, w in mu.atoms]
                for mu in (mu1, mu2))
    flows = [(i, j, Fraction(a, lw))
             for (i, j), a in sorted(transport(src, snk).items())]
    value = sum(a * dist(src[i][0], snk[j][0]) for i, j, a in flows)
    return value, [[i, j, str(a)] for i, j, a in flows]
