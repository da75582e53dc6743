"""Orthogonal polynomial families driven by one three-term recurrence engine.

Every family is a frozen :class:`FamilyId` tag plus parameters; the engine
computes p_{n+1} = (A_n x + B_n) p_n - C_n p_{n-1} with family-specific
coefficient functions.  Evaluation is duck-typed over the point, so the same
code path serves floats, exact rationals, numpy arrays and
:class:`RationalPoly` values (which is how exact coefficient vectors are
obtained).

Rows are built once.  ``_recurrence(fam, x)`` is the only place the step
runs: an endless generator of p_0(x), p_1(x), ....  ``eval_all`` is its
first n_max+1 values, and ``w_growth`` / ``v_growth`` are prefixes of the
generators ``_w_terms`` / ``_v_terms`` in the same way.  Callers that read
a row by index wrap the generator in ``qcore._Row``, a lazy list that takes
each value once, in order, up to the index asked for and no further, so a
row read to degree n costs n steps however it grows.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .qcore import (
    IrrationalParameterError,
    ParameterError,
    div,
    ensure_exact,
    q_bracket,
    q_pochhammer,
)


class RationalPoly:
    """Dense univariate polynomial with exact rational coefficients.

    coeffs[i] is the x^i coefficient; the zero polynomial has no coefficients.
    Arithmetic stays exact; evaluation accepts rational or float scalars.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        out = []
        for c in coeffs:
            if isinstance(c, float):
                raise IrrationalParameterError(
                    "RationalPoly coefficients must be rational, got %r" % (c,)
                )
            out.append(Fraction(c))
        while out and out[-1] == 0:
            out.pop()
        self.coeffs = tuple(out)

    @classmethod
    def x(cls):
        return cls((0, 1))

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

    def _coerce(self, other):
        if isinstance(other, RationalPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalPoly((other,))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return RationalPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, RationalPoly):
            if not self.coeffs or not other.coeffs:
                return RationalPoly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return RationalPoly(out)
        if isinstance(other, (int, Fraction)):
            return RationalPoly(tuple(c * other for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalPoly(tuple(c / Fraction(other) for c in self.coeffs))
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = RationalPoly((Fraction(1),))
        for _ in range(n):
            out = out * self
        return out

    def deflate(self, root):
        """Synthetic division by (x - root): returns (quotient, remainder)."""
        root = Fraction(root)
        acc = Fraction(0)
        out = []
        for c in reversed(self.coeffs):
            acc = acc * root + c
            out.append(acc)
        if not out:
            return RationalPoly(), Fraction(0)
        rem = out.pop()
        out.reverse()
        return RationalPoly(out), rem

    def lead(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

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
    return FamilyId("hermite")


def Kesten(y, rho):
    return FamilyId("kesten", y=y, rho=rho)


def KestenHat(y, rho, q):
    """Rescaled Kesten family k_n(x sqrt(1-q) | y sqrt(1-q), rho) / (1-q)^{n/2}."""
    return FamilyId("kesten_hat", q=q, y=y, rho=rho)


_UNIT_Q_OK = {"qhermite", "rogers", "asc", "bigb"}


def validate(fam):
    if fam.q is not None:
        qf = float(fam.q)
        if fam.tag in ("chebt_hat", "chebu_hat", "kesten_hat"):
            if not -1.0 < qf < 1.0:
                raise ParameterError(
                    "%s requires -1 < q < 1, got q=%r" % (fam.tag, fam.q)
                )
        elif not (abs(qf) < 1.0 or (qf == 1.0 and fam.tag in _UNIT_Q_OK)):
            raise ParameterError("%s requires |q| <= 1, got q=%r" % (fam.tag, fam.q))
    if fam.beta is not None and not abs(float(fam.beta)) < 1.0:
        raise ParameterError("%s requires |beta| < 1, got %r" % (fam.tag, fam.beta))
    if fam.rho is not None and not abs(float(fam.rho)) < 1.0:
        raise ParameterError("%s requires |rho| < 1, got %r" % (fam.tag, fam.rho))
    return fam


def _abc(fam):
    """Recurrence coefficients (A_n, B_n, C_n) for p_{n+1} = (A_n x + B_n) p_n - C_n p_{n-1}."""
    tag = fam.tag
    if tag == "qhermite":
        q = fam.q
        return lambda n: (1, 0, q_bracket(n, q))
    if tag == "rogers":
        q, b = fam.q, fam.beta
        # C_0 is multiplied by p_{-1} = 0; short-circuit keeps q^{n-1} well-defined.
        return lambda n: (
            1 - b * q ** n,
            0,
            0 if n == 0 else (1 - b * b * q ** (n - 1)) * q_bracket(n, q),
        )
    if tag == "asc":
        # At q = 1 this reduces to the Gaussian-conditional recurrence
        # G_{n+1} = (x - rho y) G_n - n (1 - rho^2) G_{n-1}.
        q, y, r = fam.q, fam.y, fam.rho
        return lambda n: (
            1,
            -r * y * q ** n,
            0 if n == 0 else (1 - r * r * q ** (n - 1)) * q_bracket(n, q),
        )
    if tag == "bigb":
        q = fam.q
        return lambda n: (
            -(q ** n),
            0,
            0 if n == 0 else -(q ** (n - 1)) * q_bracket(n, q),
        )
    if tag in ("chebt", "chebu"):
        a0 = 1 if tag == "chebt" else 2
        return lambda n: (a0, 0, 0) if n == 0 else (2, 0, 1)
    if tag in ("chebt_hat", "chebu_hat"):
        a0 = Fraction(1, 2) if tag == "chebt_hat" else 1
        c = div(1, 1 - fam.q)
        return lambda n: (a0, 0, 0) if n == 0 else (1, 0, c)
    if tag == "hermite":
        return lambda n: (1, 0, n)
    if tag in ("kesten", "kesten_hat"):
        # kesten_hat rescales C_n by 1/(1-q) for n >= 1
        y, r = fam.y, fam.rho
        c = 1 if tag == "kesten" else div(1, 1 - fam.q)

        def kest(n):
            if n == 0:
                return (1, -r * y, 0)
            if n == 1:
                return (1, 0, (1 - r * r) * c)
            return (1, 0, c)

        return kest
    raise ParameterError("unknown family tag %r" % (tag,))


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
    """[p_0(x), ..., p_{n_max}(x)]; x may be scalar, Fraction, numpy array or RationalPoly."""
    return list(islice(_recurrence(fam, x), n_max + 1))


def eval(fam, n, x):
    """p_n(x) for the given family."""
    if n < 0:
        raise ParameterError("polynomial degree must be >= 0, got %r" % (n,))
    return eval_all(fam, n, x)[n]


def coeffs(fam, n):
    """Exact coefficient vector of p_n as a RationalPoly; parameters must be rational."""
    ensure_exact(**validate(fam).params())
    return eval(fam, n, RationalPoly.x())


def _w_terms(q):
    """Endless W_0, W_1, ... (see :func:`w_growth`)."""
    prev, cur = q * 0 + 1, q * 0 + 2
    yield prev
    p = q * 0 + 1  # q^n
    while True:
        yield cur
        p = p * q
        prev, cur = cur, 2 * cur - (1 - p) * prev


def w_growth(n_max, q):
    """W_n = sum_i [n i]_q via a_{n+1} = 2 a_n - (1 - q^n) a_{n-1}, a_0 = 1, a_1 = 2.

    (1-q)^{n/2} max_{S(q)} |H_n(x|q)| equals W_n; returned as a list up to n_max.
    """
    return list(islice(_w_terms(q), n_max + 1))


def _v_terms(q, beta):
    """Endless V_0, V_1, ... (see :func:`v_growth`)."""
    bp, qp = [q * 0 + 1], [q * 0 + 1]  # (beta;q)_i, (q;q)_i
    p = q * 0 + 1  # q^n
    while True:
        n = len(bp) - 1
        acc = q * 0
        for i in range(n + 1):
            acc = acc + (bp[i] * bp[n - i]) / (qp[i] * qp[n - i])
        yield acc
        bp.append(bp[-1] * (1 - beta * p))
        qp.append(qp[-1] * (1 - q * p))
        p = p * q


def v_growth(n_max, q, beta):
    """V_n = sum_i (beta;q)_i (beta;q)_{n-i} / ((q;q)_i (q;q)_{n-i}), n <= n_max."""
    return list(islice(_v_terms(q, beta), n_max + 1))


def max_bound(fam, n):
    """Upper bound for max_{x in S(q)} |p_n(x)|.

    q-Hermite: W_n / (1-q)^{n/2} (sharp, attained at the right endpoint).
    Rogers: V_n / ((q;q)_n (1-q)^{n/2}); the V-sum bound is only established
    for 0 <= q < 1, so negative q is rejected here.
    """
    validate(fam)
    if fam.tag == "qhermite":
        q = float(fam.q)
        if not -1.0 < q < 1.0:
            raise ParameterError("max_bound needs -1 < q < 1, got q=%r" % (fam.q,))
        w = w_growth(n, q)[n]
        return w / (1.0 - q) ** (n / 2.0)
    if fam.tag == "rogers":
        q = float(fam.q)
        if not 0.0 <= q < 1.0:
            raise ParameterError(
                "Rogers max_bound is only established for 0 <= q < 1, got q=%r"
                % (fam.q,)
            )
        v = v_growth(n, q, float(fam.beta))[n]
        return v / (q_pochhammer(q, q, n) * (1.0 - q) ** (n / 2.0))
    raise ParameterError("max_bound supports qhermite and rogers, got %r" % (fam.tag,))
