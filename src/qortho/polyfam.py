"""Orthogonal polynomial families driven by one three-term recurrence engine.

Every family is a frozen :class:`FamilyId` tag plus parameters, checked at
use time by :func:`validate`, which reads the family's parameter names and
its q = 1 rule from one table and hands them to ``qcore.check_params``.  A
special case is its general family's constructor at the fixed value, not a
tag: :func:`ClassicalHermite` is ``QHermite(1)`` and :func:`Kesten` is
``KestenHat(y, rho, 0)``.  The engine computes
p_{n+1} = (A_n x + B_n) p_n - C_n p_{n-1} with family-specific coefficient
functions.  Evaluation is duck-typed over the point, so the same code path
serves floats, exact rationals and numpy arrays; ``eval_all`` and ``eval``
refuse a str, bool or complex point and a NaN or infinite float.

Exact coefficients come from ``_coordinates``, the connection-coefficient
recurrence on coordinate vectors over a source family, which
``connect.oracle_connection`` also runs: :func:`coeffs` takes the monomials,
the family with A_k = 1 and B_k = C_k = 0, as the source.

Rows are built once.  ``_recurrence(fam, x)`` is the only place the step runs
at a point: an endless generator of p_0(x), p_1(x), ..., and ``eval_all`` is
its first n_max+1 values.  The q-bracket factors [n]_q of the C_n come from
one ``qcore._brackets`` row per call, so each step costs O(1) operations.
Callers that read a row by index wrap the generator in ``qcore._Row``, a
lazy list that takes each value once, in order, up to the index asked for
and no further, so a row read to degree n costs n steps however it grows.

``_w_terms`` and ``_v_terms`` are the rows W_n and V_n from which the
sup-norm bound rules of ``expand`` bound |H_n| and |R_n| on S(q).

``_NORMS`` holds the exact squared norms ||p_n||^2 of the six families
orthogonal under a density of ``densities``.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice

from .qcore import (
    IrrationalParameterError,
    NonConvergenceError,
    ParameterError,
    _brackets,
    _nth,
    _pochhammers,
    _Row,
    check_degree,
    check_params,
    div,
    ensure_exact,
    is_exact,
    q_factorial,
    q_pochhammer,
)


class RationalPoly:
    """Dense univariate polynomial with exact rational coefficients.

    coeffs[i] is the x^i coefficient; the zero polynomial has no coefficients.
    An exact value with no arithmetic; evaluation accepts rational or float points.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        out = []
        for c in coeffs:
            if isinstance(c, float):
                raise IrrationalParameterError(
                    "RationalPoly coefficients must be rational, got %r" % (c,)
                )
            out.append(c if type(c) is Fraction else Fraction(c))
        while out and out[-1] == 0:
            out.pop()
        self.coeffs = tuple(out)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __call__(self, x):
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if isinstance(other, RationalPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == RationalPoly((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "RationalPoly(%r)" % (self.coeffs,)


@dataclass(frozen=True)
class FamilyId:
    tag: str
    q: object = None
    beta: object = None
    y: object = None
    rho: object = None

    def params(self):
        """The parameters that are set, by name."""
        return {
            name: getattr(self, name)
            for name in ("q", "beta", "y", "rho")
            if getattr(self, name) is not None
        }

    def label(self):
        params = ",".join("%s=%s" % item for item in self.params().items())
        return "%s(%s)" % (self.tag, params) if params else self.tag


def QHermite(q):
    return FamilyId("qhermite", q=q)


def Rogers(beta, q):
    return FamilyId("rogers", q=q, beta=beta)


def ASC(y, rho, q):
    """Al-Salam--Chihara-type family: three-term recurrence with shift rho y q^n."""
    return FamilyId("asc", q=q, y=y, rho=rho)


def BigB(q):
    """Auxiliary family in the conditioning variable; argument plays the role of y."""
    return FamilyId("bigb", q=q)


def ChebT():
    return FamilyId("chebt")


def ChebU():
    return FamilyId("chebu")


def ChebT_hat(q):
    return FamilyId("chebt_hat", q=q)


def ChebU_hat(q):
    return FamilyId("chebu_hat", q=q)


def ClassicalHermite():
    """He_n, the q-Hermite family at q = 1."""
    return QHermite(1)


def Kesten(y, rho):
    """Kesten--McKay k_n(x|y, rho), the rescaled Kesten family at q = 0."""
    return KestenHat(y, rho, 0)


def KestenHat(y, rho, q):
    """Rescaled Kesten family k_n(x sqrt(1-q) | y sqrt(1-q), rho) / (1-q)^{n/2}."""
    return FamilyId("kesten_hat", q=q, y=y, rho=rho)


#: each family's parameters, and whether q = 1 (the Gaussian limit) is in its domain
_DOMAINS = {
    "qhermite": (("q",), True), "rogers": (("beta", "q"), True),
    "asc": (("y", "rho", "q"), True), "bigb": (("q",), True),
    "chebt": ((), False), "chebu": ((), False),
    "chebt_hat": (("q",), False), "chebu_hat": (("q",), False),
    "kesten_hat": (("y", "rho", "q"), False),
}


def _exact_power(v, n):
    """v ** n, a Fraction when v is rational, so a negative n stays exact."""
    return (Fraction(v) if is_exact(v) else v) ** n


#: family tag -> (density tag, rule): ||p_n||^2 = rule(p, n), reading only
#: p.q, p.rho and p.beta, so p is the family or its density
_NORMS = {
    "qhermite": ("fn", lambda p, n: q_factorial(n, p.q)),
    "asc": ("fcn", lambda p, n: q_pochhammer(p.rho * p.rho, p.q, n) * q_factorial(n, p.q)),
    "rogers": ("fr", lambda p, n: div(
        (1 - p.beta) * q_pochhammer(p.beta * p.beta, p.q, n) * q_factorial(n, p.q),
        1 - p.beta * p.q ** n)),
    "chebu_hat": ("fu", lambda p, n: _exact_power(1 - p.q, -n)),
    "chebt_hat": ("ft", lambda p, n: (1 if n == 0 else Fraction(1, 2))
                  * _exact_power(1 - p.q, -n)),
    "kesten_hat": ("fk", lambda p, n: (1 if n == 0 else 1 - p.rho ** 2)
                   * _exact_power(1 - p.q, -n)),
}


def validate(fam):
    """fam, once its parameters pass ``qcore.check_params``."""
    if fam.tag not in _DOMAINS:
        raise ParameterError("unknown family tag %r" % (fam.tag,))
    names, unit_q = _DOMAINS[fam.tag]
    check_params(fam.tag, vars(fam), names, unit_q)
    return fam


def _abc(fam):
    """Recurrence coefficients (A_n, B_n, C_n) for p_{n+1} = (A_n x + B_n) p_n - C_n p_{n-1}."""
    tag, q = fam.tag, fam.q
    br = _Row(_brackets(q))  # [n]_q, lazy: only the q-Hermite-type families read it
    if tag == "qhermite":
        return lambda n: (1, 0, br[n])
    if tag == "rogers":
        b = fam.beta
        # C_0 is multiplied by p_{-1} = 0; short-circuit keeps q^{n-1} well-defined.
        return lambda n: (
            1 - b * q ** n,
            0,
            0 if n == 0 else (1 - b * b * q ** (n - 1)) * br[n],
        )
    if tag == "asc":
        # At q = 1 this reduces to the Gaussian-conditional recurrence
        # G_{n+1} = (x - rho y) G_n - n (1 - rho^2) G_{n-1}.
        y, r = fam.y, fam.rho
        return lambda n: (
            1,
            -r * y * q ** n,
            0 if n == 0 else (1 - r * r * q ** (n - 1)) * br[n],
        )
    if tag == "bigb":
        return lambda n: (
            -(q ** n),
            0,
            0 if n == 0 else -(q ** (n - 1)) * br[n],
        )
    if tag in ("chebt", "chebu"):
        a0 = 1 if tag == "chebt" else 2
        return lambda n: (a0, 0, 0) if n == 0 else (2, 0, 1)
    if tag in ("chebt_hat", "chebu_hat"):
        a0 = Fraction(1, 2) if tag == "chebt_hat" else 1
        c = div(1, 1 - fam.q)
        return lambda n: (a0, 0, 0) if n == 0 else (1, 0, c)
    if tag == "kesten_hat":
        # the Kesten recurrence with C_n rescaled by 1/(1-q) for n >= 1
        y, r, c = fam.y, fam.rho, div(1, 1 - fam.q)
        return lambda n: (1, -r * y, 0) if n == 0 else (1, 0, (1 - r * r) * c if n == 1 else c)


def _recurrence(fam, x):
    """Endless p_0(x), p_1(x), ...; each value costs one recurrence step."""
    validate(fam)
    abc = _abc(fam)
    prev, cur = x * 0, x * 0 + 1
    n = 0
    while True:
        yield cur
        A, B, C = abc(n)
        prev, cur = cur, (A * x + B) * cur - C * prev
        n += 1


def eval_all(fam, n_max, x):
    """[p_0(x), ..., p_{n_max}(x)], n_max an int >= 0; x a float, int, Fraction or ndarray.

    A str, bool or complex x, anything of a bool dtype (a numpy bool), or a
    NaN or infinite float, is a ParameterError; ints and Fractions of any
    size stay exact, and an array passes as it is (``densities._as_array``
    checks the float layers' points).  An int or Fraction x too large for
    float() meeting a float row is a NonConvergenceError.
    """
    check_degree(n_max)
    if isinstance(x, float) and not math.isfinite(x):
        raise ParameterError("polynomial point x must be finite, got %r" % (x,))
    if isinstance(x, (str, bytes, bool, complex)) or getattr(x, "dtype", None) == bool:
        raise ParameterError("polynomial point x must be a real number, got %r" % (x,))
    try:
        return list(islice(_recurrence(fam, x), n_max + 1))
    except OverflowError as exc:  # an exact x too large for float() met a float row
        raise NonConvergenceError(str(exc)) from exc


def eval(fam, n, x):
    """p_n(x) for the given family.

    A degree n that is not an int >= 0, or a point x that ``eval_all``
    refuses, is a ParameterError, and a float value that overflowed (inf or
    NaN at a finite x, or an int x too large to meet a float row) a
    NonConvergenceError.
    """
    check_degree(n, "polynomial degree")
    value = eval_all(fam, n, x)[n]
    if isinstance(value, float) and not math.isfinite(value):
        raise NonConvergenceError("%s p_%d(%r) overflowed" % (fam.label(), n, x))
    return value


def _coordinates(target, steps, n_max):
    """Coordinates of target_0..target_{n_max} over a source with inverted steps
    steps[k] = (1/A_k, B_k, C_k): x S_k = (S_{k+1} - B_k S_k + C_k S_{k-1}) / A_k
    runs the target recurrence in O(n) exact operations a row (Ronveaux, Zarzo
    & Godoy, J. Comput. Appl. Math. 62, 1995)."""
    tgt = _abc(target)
    prev, cur = [], [Fraction(1)]  # target_{n-1}, target_n over source_0..source_n
    yield cur
    for n in range(n_max):
        a, b, c = tgt(n)
        nxt = [b * g for g in cur] + [Fraction(0)] if b else [Fraction(0)] * (n + 2)
        for k, g in enumerate(prev):
            nxt[k] -= c * g
        for k, g in enumerate(cur):
            if g:
                inv, B, C = steps[k]
                u = a * g * inv  # a_n g x S_k = u (S_{k+1} - B_k S_k + C_k S_{k-1})
                nxt[k + 1] += u
                if B:
                    nxt[k] -= u * B
                if k and C:
                    nxt[k - 1] += u * C
        prev, cur = cur, nxt
        yield cur


def coeffs(fam, n):
    """Exact coefficient vector of p_n as a RationalPoly, its coordinates over the
    monomials (steps (1, 0, 0)); parameters must be rational, n an int >= 0."""
    ensure_exact(**validate(fam).params())
    check_degree(n, "polynomial degree")
    return RationalPoly(_nth(_coordinates(fam, [(1, 0, 0)] * n, n), n))


def _w_terms(q):
    """Endless W_0, W_1, ...: W_n = sum_i [n i]_q by W_{n+1} = 2 W_n - (1 - q^n) W_{n-1}.

    (1-q)^{n/2} max_{S(q)} |H_n(x|q)| equals W_n (attained at the right endpoint).
    """
    prev, cur = q * 0 + 1, q * 0 + 2
    yield prev
    p = q * 0 + 1  # q^n
    while True:
        yield cur
        p = p * q
        prev, cur = cur, 2 * cur - (1 - p) * prev


def _v_terms(q, beta):
    """Endless V_0, V_1, ...: V_n = sum_i (beta;q)_i (beta;q)_{n-i} / ((q;q)_i (q;q)_{n-i}).

    V_n / ((q;q)_n (1-q)^{n/2}) bounds max_{S(q)} |R_n(x|beta,q)| for 0 <= q < 1.
    """
    bp = _Row(_pochhammers(beta, q))
    qp = _Row(_pochhammers(q, q))
    for n in count():
        acc = q * 0
        for i in range(n + 1):
            acc = acc + (bp[i] * bp[n - i]) / (qp[i] * qp[n - i])
        yield acc
