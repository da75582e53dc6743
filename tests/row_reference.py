"""Per-step reference for the q-bracket rows and the recurrence coefficients.

These are the straightforward loops the row engine must reproduce bit for
bit: ``bracket`` sums [n]_q from scratch for each n, ``factorials``
multiplies a freshly summed bracket into each factorial, and ``abc`` /
``row`` run the three-term recurrence of the q-Hermite-type families with
C_n read from ``bracket`` at every step.  Tests compare ``qcore.q_bracket``,
``qcore._factorials`` and ``polyfam._recurrence`` with the functions below.
"""


def bracket(n, q):
    acc = q * 0
    p = q * 0 + 1
    for _ in range(n):
        acc = acc + p
        p = p * q
    return acc


def factorials(q, n_max):
    out = q * 0 + 1
    br = q * 0
    p = q * 0 + 1
    vals = []
    for _ in range(n_max + 1):
        vals.append(out)
        br = br + p
        p = p * q
        out = out * br
    return vals


def abc(fam):
    tag, q = fam.tag, fam.q
    if tag == "qhermite":
        return lambda n: (1, 0, bracket(n, q))
    if tag == "rogers":
        b = fam.beta
        return lambda n: (
            1 - b * q ** n,
            0,
            0 if n == 0 else (1 - b * b * q ** (n - 1)) * bracket(n, q),
        )
    if tag == "asc":
        y, r = fam.y, fam.rho
        return lambda n: (
            1,
            -r * y * q ** n,
            0 if n == 0 else (1 - r * r * q ** (n - 1)) * bracket(n, q),
        )
    if tag == "bigb":
        return lambda n: (
            -(q ** n),
            0,
            0 if n == 0 else -(q ** (n - 1)) * bracket(n, q),
        )
    raise ValueError("no reference coefficients for %r" % (tag,))


def row(fam, x, n_max):
    """[p_0(x), ..., p_{n_max}(x)] by the per-step recurrence."""
    rule = abc(fam)
    prev, cur = x * 0, x * 0 + 1
    vals = []
    for n in range(n_max + 1):
        vals.append(cur)
        A, B, C = rule(n)
        prev, cur = cur, (A * x + B) * cur - C * prev
    return vals
