"""Hash-consed quantifier-free bitvector (QF_BV) terms.

This module is the foundation of the solver substrate: every symbolic value
the execution engine manipulates is a :class:`Term`.  Terms are immutable and
(by default) hash-consed, so structurally equal terms are the same object and
identity comparison is sound.  Constructors perform light rewriting
(constant folding, identity elimination, commutative-argument ordering) when
simplification is enabled; both behaviours can be disabled for the ablation
benchmarks via :func:`configure`.

Booleans are modelled as bitvectors of width 1 (``TRUE``/``FALSE``), which
keeps the operator set small and lets path conditions reuse the bitvector
machinery unchanged.

Division semantics follow SMT-LIB: ``udiv x 0`` is all-ones, ``urem x 0`` is
``x``, and the signed forms are derived from the unsigned ones by sign
manipulation.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Dict, Iterable, Optional, Tuple

__all__ = [
    "Term",
    "TermPool",
    "digest",
    "query_key",
    "SmtError",
    "WidthError",
    "configure",
    "get_pool",
    "set_pool",
    "pool_stats",
    "bv",
    "var",
    "add",
    "sub",
    "mul",
    "udiv",
    "urem",
    "sdiv",
    "srem",
    "and_",
    "or_",
    "xor",
    "not_",
    "neg",
    "shl",
    "lshr",
    "ashr",
    "rotl",
    "rotr",
    "concat",
    "concat_many",
    "extract",
    "zext",
    "sext",
    "ite",
    "eq",
    "ne",
    "ult",
    "ule",
    "ugt",
    "uge",
    "slt",
    "sle",
    "sgt",
    "sge",
    "implies",
    "conjoin",
    "disjoin",
    "TRUE",
    "FALSE",
    "is_true",
    "is_false",
    "evaluate",
    "variables",
    "term_size",
    "to_signed",
    "mask",
]


class SmtError(Exception):
    """Base class for solver-substrate errors."""


class WidthError(SmtError):
    """An operation was applied to terms of incompatible widths."""


def mask(width: int) -> int:
    """All-ones bitmask of ``width`` bits."""
    return (1 << width) - 1


def to_signed(value: int, width: int) -> int:
    """Interpret ``value`` (unsigned, ``width`` bits) as two's complement."""
    sign_bit = 1 << (width - 1)
    return (value & mask(width)) - ((value & sign_bit) << 1)


# Operator tags.  CONST and VAR are leaves; everything else is interior.
CONST = "const"
VAR = "var"
ADD = "add"
SUB = "sub"
MUL = "mul"
UDIV = "udiv"
UREM = "urem"
SDIV = "sdiv"
SREM = "srem"
AND = "and"
OR = "or"
XOR = "xor"
NOT = "not"
SHL = "shl"
LSHR = "lshr"
ASHR = "ashr"
CONCAT = "concat"
EXTRACT = "extract"
ZEXT = "zext"
SEXT = "sext"
ITE = "ite"
EQ = "eq"
ULT = "ult"
ULE = "ule"

_COMMUTATIVE = frozenset({ADD, MUL, AND, OR, XOR, EQ})


class Term:
    """An immutable bitvector expression node.

    Do not instantiate directly; use the module-level constructor functions
    (:func:`bv`, :func:`var`, :func:`add`, ...), which simplify and intern.
    """

    __slots__ = ("op", "width", "args", "value", "name", "params", "_id",
                 "_hash", "_digest")

    _counter = itertools.count()

    def __init__(self, op, width, args=(), value=None, name=None, params=()):
        self.op = op
        self.width = width
        self.args = args
        self.value = value
        self.name = name
        self.params = params
        self._id = next(Term._counter)
        self._hash = hash((op, width, value, name, params,
                           tuple([a._id for a in args])))
        # Lazily computed structural digest (see ``digest``): stable
        # across pools, processes and runs — the solver's query-cache key.
        self._digest = None

    @property
    def tid(self) -> int:
        """Globally unique term id (creation order)."""
        return self._id

    def is_const(self) -> bool:
        return self.op is CONST or self.op == CONST

    def is_var(self) -> bool:
        return self.op == VAR

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        # Under hash-consing, identity suffices; structural fallback keeps
        # the no-consing ablation configuration correct.
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        return (self.op == other.op and self.width == other.width
                and self.value == other.value and self.name == other.name
                and self.params == other.params and self.args == other.args)

    def __repr__(self):
        return "<Term {}>".format(render(self, max_depth=4))


def render(term: Term, max_depth: int = 12) -> str:
    """Human-readable rendering of a term, truncated at ``max_depth``."""
    if max_depth <= 0:
        return "..."
    if term.op == CONST:
        return "{:#x}[{}]".format(term.value, term.width)
    if term.op == VAR:
        return "{}[{}]".format(term.name, term.width)
    if term.op == EXTRACT:
        hi, lo = term.params
        return "{}[{}:{}]".format(render(term.args[0], max_depth - 1), hi, lo)
    inner = ", ".join(render(a, max_depth - 1) for a in term.args)
    if term.params:
        return "{}<{}>({})".format(
            term.op, ",".join(str(p) for p in term.params), inner)
    return "{}({})".format(term.op, inner)


class TermPool:
    """Interning pool plus construction-time simplification switches.

    ``hash_consing`` and ``simplify`` exist so the ablation benchmarks
    (DESIGN.md Table 5) can measure what each buys.
    """

    def __init__(self, hash_consing: bool = True, simplify: bool = True):
        self.hash_consing = hash_consing
        self.simplify = simplify
        self._interned: Dict[tuple, Term] = {}
        self._vars: Dict[str, Term] = {}
        self.hits = 0
        self.misses = 0

    def make(self, op, width, args=(), value=None, name=None, params=()) -> Term:
        if not self.hash_consing:
            self.misses += 1
            return Term(op, width, tuple(args), value, name, params)
        key = (op, width, value, name, params, tuple([a._id for a in args]))
        found = self._interned.get(key)
        if found is not None:
            self.hits += 1
            return found
        self.misses += 1
        term = Term(op, width, tuple(args), value, name, params)
        self._interned[key] = term
        return term

    def stats(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "interned": len(self._interned),
                "vars": len(self._vars)}

    def growth_since(self, before: Dict[str, int]) -> Dict[str, int]:
        """Stat deltas since an earlier :meth:`stats` snapshot.

        ``misses`` growth counts terms *constructed* in the window
        (every cache miss allocates one Term); ``interned`` growth is
        net live pool growth.  The health monitor samples this to
        surface term-pool blowup while a run is still in flight.
        """
        now = self.stats()
        return {key: now[key] - before.get(key, 0) for key in now}


_pool = TermPool()


def get_pool() -> TermPool:
    return _pool


def set_pool(pool: TermPool) -> TermPool:
    """Install ``pool`` as the active pool; returns the previous one."""
    global _pool, TRUE, FALSE
    previous = _pool
    _pool = pool
    TRUE = bv(1, 1)
    FALSE = bv(0, 1)
    return previous


def configure(hash_consing: Optional[bool] = None,
              simplify: Optional[bool] = None) -> TermPool:
    """Replace the active pool with a fresh one using the given switches."""
    pool = get_pool()
    new = TermPool(
        hash_consing=pool.hash_consing if hash_consing is None else hash_consing,
        simplify=pool.simplify if simplify is None else simplify,
    )
    set_pool(new)
    return new


def pool_stats() -> Dict[str, int]:
    return _pool.stats()


# ---------------------------------------------------------------------------
# Leaf constructors
# ---------------------------------------------------------------------------

def bv(value: int, width: int) -> Term:
    """A constant bitvector of ``width`` bits (value taken modulo 2**width)."""
    if width <= 0:
        raise WidthError("bitvector width must be positive, got %d" % width)
    return _pool.make(CONST, width, value=value & mask(width))


def var(name: str, width: int) -> Term:
    """A free bitvector variable.

    Within one pool a name is bound to a single width; reusing a name with a
    different width raises :class:`WidthError`.
    """
    if width <= 0:
        raise WidthError("bitvector width must be positive, got %d" % width)
    existing = _pool._vars.get(name)
    if existing is not None:
        if existing.width != width:
            raise WidthError(
                "variable %r already declared with width %d (asked for %d)"
                % (name, existing.width, width))
        return existing
    term = _pool.make(VAR, width, name=name)
    _pool._vars[name] = term
    return term


def _check_same_width(a: Term, b: Term, what: str) -> None:
    if a.width != b.width:
        raise WidthError("%s requires equal widths, got %d and %d"
                         % (what, a.width, b.width))


def _canonical_pair(a: Term, b: Term) -> Tuple[Term, Term]:
    """Order commutative operands: constants last, then by term id."""
    a_key = (0 if a.op != CONST else 1, a._id)
    b_key = (0 if b.op != CONST else 1, b._id)
    if b_key < a_key:
        return b, a
    return a, b


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

def add(a: Term, b: Term) -> Term:
    _check_same_width(a, b, "add")
    w = a.width
    if _pool.simplify:
        if a.op == CONST and b.op == CONST:
            return bv(a.value + b.value, w)
        if a.op == CONST and a.value == 0:
            return b
        if b.op == CONST and b.value == 0:
            return a
        # Reassociate (x + c1) + c2 -> x + (c1+c2)
        if b.op == CONST and a.op == ADD and a.args[1].op == CONST:
            return add(a.args[0], bv(a.args[1].value + b.value, w))
        a, b = _canonical_pair(a, b)
    return _pool.make(ADD, w, (a, b))


def sub(a: Term, b: Term) -> Term:
    _check_same_width(a, b, "sub")
    w = a.width
    if _pool.simplify:
        if a.op == CONST and b.op == CONST:
            return bv(a.value - b.value, w)
        if b.op == CONST and b.value == 0:
            return a
        if a is b:
            return bv(0, w)
    return _pool.make(SUB, w, (a, b))


def neg(a: Term) -> Term:
    """Two's-complement negation."""
    return sub(bv(0, a.width), a)


def mul(a: Term, b: Term) -> Term:
    _check_same_width(a, b, "mul")
    w = a.width
    if _pool.simplify:
        if a.op == CONST and b.op == CONST:
            return bv(a.value * b.value, w)
        for x, y in ((a, b), (b, a)):
            if x.op == CONST:
                if x.value == 0:
                    return bv(0, w)
                if x.value == 1:
                    return y
        a, b = _canonical_pair(a, b)
    return _pool.make(MUL, w, (a, b))


def udiv(a: Term, b: Term) -> Term:
    _check_same_width(a, b, "udiv")
    w = a.width
    if _pool.simplify:
        if a.op == CONST and b.op == CONST:
            result = mask(w) if b.value == 0 else a.value // b.value
            return bv(result, w)
        if b.op == CONST and b.value == 1:
            return a
    return _pool.make(UDIV, w, (a, b))


def urem(a: Term, b: Term) -> Term:
    _check_same_width(a, b, "urem")
    w = a.width
    if _pool.simplify:
        if a.op == CONST and b.op == CONST:
            result = a.value if b.value == 0 else a.value % b.value
            return bv(result, w)
        if b.op == CONST and b.value == 1:
            return bv(0, w)
    return _pool.make(UREM, w, (a, b))


def sdiv(a: Term, b: Term) -> Term:
    _check_same_width(a, b, "sdiv")
    w = a.width
    if _pool.simplify and a.op == CONST and b.op == CONST:
        return bv(_const_sdiv(a.value, b.value, w), w)
    return _pool.make(SDIV, w, (a, b))


def srem(a: Term, b: Term) -> Term:
    _check_same_width(a, b, "srem")
    w = a.width
    if _pool.simplify and a.op == CONST and b.op == CONST:
        return bv(_const_srem(a.value, b.value, w), w)
    return _pool.make(SREM, w, (a, b))


def _const_sdiv(a: int, b: int, w: int) -> int:
    sa, sb = to_signed(a, w), to_signed(b, w)
    if sb == 0:
        return 1 if sa < 0 else mask(w)
    # SMT-LIB bvsdiv truncates toward zero.
    q = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        q = -q
    return q & mask(w)


def _const_srem(a: int, b: int, w: int) -> int:
    sa, sb = to_signed(a, w), to_signed(b, w)
    if sb == 0:
        return a
    r = abs(sa) % abs(sb)
    if sa < 0:
        r = -r
    return r & mask(w)


# ---------------------------------------------------------------------------
# Bitwise
# ---------------------------------------------------------------------------

def and_(a: Term, b: Term) -> Term:
    _check_same_width(a, b, "and")
    w = a.width
    if _pool.simplify:
        if a.op == CONST and b.op == CONST:
            return bv(a.value & b.value, w)
        for x, y in ((a, b), (b, a)):
            if x.op == CONST:
                if x.value == 0:
                    return bv(0, w)
                if x.value == mask(w):
                    return y
        if a is b:
            return a
        a, b = _canonical_pair(a, b)
    return _pool.make(AND, w, (a, b))


def or_(a: Term, b: Term) -> Term:
    _check_same_width(a, b, "or")
    w = a.width
    if _pool.simplify:
        if a.op == CONST and b.op == CONST:
            return bv(a.value | b.value, w)
        for x, y in ((a, b), (b, a)):
            if x.op == CONST:
                if x.value == 0:
                    return y
                if x.value == mask(w):
                    return bv(mask(w), w)
        if a is b:
            return a
        a, b = _canonical_pair(a, b)
    return _pool.make(OR, w, (a, b))


def xor(a: Term, b: Term) -> Term:
    _check_same_width(a, b, "xor")
    w = a.width
    if _pool.simplify:
        if a.op == CONST and b.op == CONST:
            return bv(a.value ^ b.value, w)
        for x, y in ((a, b), (b, a)):
            if x.op == CONST and x.value == 0:
                return y
        if a is b:
            return bv(0, w)
        a, b = _canonical_pair(a, b)
    return _pool.make(XOR, w, (a, b))


def not_(a: Term) -> Term:
    if _pool.simplify:
        if a.op == CONST:
            return bv(~a.value, a.width)
        if a.op == NOT:
            return a.args[0]
    return _pool.make(NOT, a.width, (a,))


# ---------------------------------------------------------------------------
# Shifts and rotates (shift amount has the same width as the value;
# over-shifting yields 0, or sign-fill for ashr, per SMT-LIB).
# ---------------------------------------------------------------------------

def shl(a: Term, amount: Term) -> Term:
    _check_same_width(a, amount, "shl")
    w = a.width
    if _pool.simplify:
        if amount.op == CONST:
            if amount.value == 0:
                return a
            if amount.value >= w:
                return bv(0, w)
            if a.op == CONST:
                return bv(a.value << amount.value, w)
    return _pool.make(SHL, w, (a, amount))


def lshr(a: Term, amount: Term) -> Term:
    _check_same_width(a, amount, "lshr")
    w = a.width
    if _pool.simplify:
        if amount.op == CONST:
            if amount.value == 0:
                return a
            if amount.value >= w:
                return bv(0, w)
            if a.op == CONST:
                return bv(a.value >> amount.value, w)
    return _pool.make(LSHR, w, (a, amount))


def ashr(a: Term, amount: Term) -> Term:
    _check_same_width(a, amount, "ashr")
    w = a.width
    if _pool.simplify:
        if amount.op == CONST:
            if amount.value == 0:
                return a
            if a.op == CONST:
                shift = min(amount.value, w - 1) if amount.value >= w else amount.value
                return bv(to_signed(a.value, w) >> shift, w)
            if amount.value >= w:
                # Pure sign fill.
                return _pool.make(ASHR, w, (a, bv(w - 1, w)))
    return _pool.make(ASHR, w, (a, amount))


def rotl(a: Term, amount: Term) -> Term:
    """Rotate left, lowered to shifts (correct for symbolic amounts)."""
    w = a.width
    amt = urem(amount, bv(w, w))
    return or_(shl(a, amt), lshr(a, sub(bv(w, w), amt)))


def rotr(a: Term, amount: Term) -> Term:
    """Rotate right, lowered to shifts (correct for symbolic amounts)."""
    w = a.width
    amt = urem(amount, bv(w, w))
    return or_(lshr(a, amt), shl(a, sub(bv(w, w), amt)))


# ---------------------------------------------------------------------------
# Structure: concat / extract / extension
# ---------------------------------------------------------------------------

def concat(hi: Term, lo: Term) -> Term:
    """Concatenate, with ``hi`` becoming the most significant bits."""
    w = hi.width + lo.width
    if _pool.simplify:
        if hi.op == CONST and lo.op == CONST:
            return bv((hi.value << lo.width) | lo.value, w)
        # concat of adjacent extracts of the same subject folds away.
        if (hi.op == EXTRACT and lo.op == EXTRACT
                and hi.args[0] is lo.args[0]
                and hi.params[1] == lo.params[0] + 1):
            return extract(hi.args[0], hi.params[0], lo.params[1])
    return _pool.make(CONCAT, w, (hi, lo))


def concat_many(parts: Iterable[Term]) -> Term:
    """Concatenate a most-significant-first sequence of terms."""
    parts = list(parts)
    if not parts:
        raise SmtError("concat_many needs at least one part")
    result = parts[0]
    for part in parts[1:]:
        result = concat(result, part)
    return result


def extract(a: Term, hi: int, lo: int) -> Term:
    """Bits ``hi`` down to ``lo`` inclusive (width ``hi - lo + 1``)."""
    if not (0 <= lo <= hi < a.width):
        raise WidthError("extract [%d:%d] out of range for width %d"
                         % (hi, lo, a.width))
    w = hi - lo + 1
    if _pool.simplify:
        if w == a.width:
            return a
        if a.op == CONST:
            return bv(a.value >> lo, w)
        if a.op == EXTRACT:
            inner_lo = a.params[1]
            return extract(a.args[0], inner_lo + hi, inner_lo + lo)
        if a.op == CONCAT:
            hi_part, lo_part = a.args
            if hi < lo_part.width:
                return extract(lo_part, hi, lo)
            if lo >= lo_part.width:
                return extract(hi_part, hi - lo_part.width, lo - lo_part.width)
        if a.op == ZEXT and hi < a.args[0].width:
            return extract(a.args[0], hi, lo)
        if a.op in (ZEXT, SEXT) and hi < a.args[0].width:
            return extract(a.args[0], hi, lo)
    return _pool.make(EXTRACT, w, (a,), params=(hi, lo))


def zext(a: Term, extra: int) -> Term:
    """Zero-extend by ``extra`` bits."""
    if extra < 0:
        raise WidthError("cannot extend by %d bits" % extra)
    if extra == 0:
        return a
    w = a.width + extra
    if _pool.simplify:
        if a.op == CONST:
            return bv(a.value, w)
        if a.op == ZEXT:
            return zext(a.args[0], w - a.args[0].width)
    return _pool.make(ZEXT, w, (a,), params=(extra,))


def sext(a: Term, extra: int) -> Term:
    """Sign-extend by ``extra`` bits."""
    if extra < 0:
        raise WidthError("cannot extend by %d bits" % extra)
    if extra == 0:
        return a
    w = a.width + extra
    if _pool.simplify:
        if a.op == CONST:
            return bv(to_signed(a.value, a.width), w)
        if a.op == SEXT:
            return sext(a.args[0], w - a.args[0].width)
        if a.op == ZEXT:
            # The zero-extended top bit is 0, so further extension is zero.
            return zext(a.args[0], w - a.args[0].width)
    return _pool.make(SEXT, w, (a,), params=(extra,))


# ---------------------------------------------------------------------------
# Predicates (width-1 results) and ite
# ---------------------------------------------------------------------------

def eq(a: Term, b: Term) -> Term:
    _check_same_width(a, b, "eq")
    if _pool.simplify:
        if a is b:
            return TRUE
        if a.op == CONST and b.op == CONST:
            return TRUE if a.value == b.value else FALSE
        if a.width == 1:
            # On booleans, eq is xnor; fold against constants.
            if a.op == CONST:
                return b if a.value == 1 else not_(b)
            if b.op == CONST:
                return a if b.value == 1 else not_(a)
        a, b = _canonical_pair(a, b)
    return _pool.make(EQ, 1, (a, b))


def ne(a: Term, b: Term) -> Term:
    return not_(eq(a, b))


def ult(a: Term, b: Term) -> Term:
    _check_same_width(a, b, "ult")
    if _pool.simplify:
        if a is b:
            return FALSE
        if a.op == CONST and b.op == CONST:
            return TRUE if a.value < b.value else FALSE
        if b.op == CONST and b.value == 0:
            return FALSE
        if a.op == CONST and a.value == mask(a.width):
            return FALSE
    return _pool.make(ULT, 1, (a, b))


def ule(a: Term, b: Term) -> Term:
    _check_same_width(a, b, "ule")
    if _pool.simplify:
        if a is b:
            return TRUE
        if a.op == CONST and b.op == CONST:
            return TRUE if a.value <= b.value else FALSE
        if a.op == CONST and a.value == 0:
            return TRUE
        if b.op == CONST and b.value == mask(b.width):
            return TRUE
    return _pool.make(ULE, 1, (a, b))


def ugt(a: Term, b: Term) -> Term:
    return ult(b, a)


def uge(a: Term, b: Term) -> Term:
    return ule(b, a)


def _flip_sign(a: Term) -> Term:
    return xor(a, bv(1 << (a.width - 1), a.width))


def slt(a: Term, b: Term) -> Term:
    """Signed less-than, lowered to unsigned with the sign bit flipped."""
    _check_same_width(a, b, "slt")
    return ult(_flip_sign(a), _flip_sign(b))


def sle(a: Term, b: Term) -> Term:
    _check_same_width(a, b, "sle")
    return ule(_flip_sign(a), _flip_sign(b))


def sgt(a: Term, b: Term) -> Term:
    return slt(b, a)


def sge(a: Term, b: Term) -> Term:
    return sle(b, a)


def ite(cond: Term, then: Term, other: Term) -> Term:
    if cond.width != 1:
        raise WidthError("ite condition must have width 1, got %d" % cond.width)
    _check_same_width(then, other, "ite")
    if _pool.simplify:
        if cond.op == CONST:
            return then if cond.value == 1 else other
        if then is other:
            return then
        if then.width == 1 and then.op == CONST and other.op == CONST:
            # ite(c, 1, 0) -> c ; ite(c, 0, 1) -> !c
            return cond if then.value == 1 else not_(cond)
    return _pool.make(ITE, then.width, (cond, then, other))


def implies(a: Term, b: Term) -> Term:
    return or_(not_(a), b)


def conjoin(conds: Iterable[Term]) -> Term:
    """AND of a sequence of booleans (TRUE for the empty sequence)."""
    result = TRUE
    for cond in conds:
        result = and_(result, cond)
    return result


def disjoin(conds: Iterable[Term]) -> Term:
    """OR of a sequence of booleans (FALSE for the empty sequence)."""
    result = FALSE
    for cond in conds:
        result = or_(result, cond)
    return result


TRUE = bv(1, 1)
FALSE = bv(0, 1)


def is_true(term: Term) -> bool:
    return term.op == CONST and term.width == 1 and term.value == 1


def is_false(term: Term) -> bool:
    return term.op == CONST and term.width == 1 and term.value == 0


# ---------------------------------------------------------------------------
# Evaluation and inspection
# ---------------------------------------------------------------------------

def evaluate(term: Term, assignment: Dict[str, int],
             default: Optional[int] = 0) -> int:
    """Concretely evaluate ``term`` under ``assignment`` (var name -> int).

    Unassigned variables take ``default`` (pass ``default=None`` to make them
    an error instead).  Iterative post-order traversal so deep terms do not
    hit the recursion limit.
    """
    cache: Dict[int, int] = {}
    stack = [(term, False)]
    while stack:
        node, ready = stack.pop()
        if node._id in cache:
            continue
        if not ready:
            if node.op == CONST:
                cache[node._id] = node.value
                continue
            if node.op == VAR:
                if node.name in assignment:
                    cache[node._id] = assignment[node.name] & mask(node.width)
                elif default is None:
                    raise SmtError("no value for variable %r" % node.name)
                else:
                    cache[node._id] = default & mask(node.width)
                continue
            stack.append((node, True))
            for arg in node.args:
                stack.append((arg, False))
            continue
        argv = [cache[a._id] for a in node.args]
        cache[node._id] = _eval_op(node, argv)
    return cache[term._id]


def _eval_op(node: Term, argv) -> int:
    op, w = node.op, node.width
    if op == ADD:
        return (argv[0] + argv[1]) & mask(w)
    if op == SUB:
        return (argv[0] - argv[1]) & mask(w)
    if op == MUL:
        return (argv[0] * argv[1]) & mask(w)
    if op == UDIV:
        return mask(w) if argv[1] == 0 else argv[0] // argv[1]
    if op == UREM:
        return argv[0] if argv[1] == 0 else argv[0] % argv[1]
    if op == SDIV:
        return _const_sdiv(argv[0], argv[1], w)
    if op == SREM:
        return _const_srem(argv[0], argv[1], w)
    if op == AND:
        return argv[0] & argv[1]
    if op == OR:
        return argv[0] | argv[1]
    if op == XOR:
        return argv[0] ^ argv[1]
    if op == NOT:
        return ~argv[0] & mask(w)
    if op == SHL:
        return (argv[0] << argv[1]) & mask(w) if argv[1] < w else 0
    if op == LSHR:
        return argv[0] >> argv[1] if argv[1] < w else 0
    if op == ASHR:
        shift = min(argv[1], w - 1) if argv[1] >= w else argv[1]
        return (to_signed(argv[0], w) >> shift) & mask(w)
    if op == CONCAT:
        return (argv[0] << node.args[1].width) | argv[1]
    if op == EXTRACT:
        hi, lo = node.params
        return (argv[0] >> lo) & mask(hi - lo + 1)
    if op == ZEXT:
        return argv[0]
    if op == SEXT:
        inner = node.args[0]
        return to_signed(argv[0], inner.width) & mask(w)
    if op == ITE:
        return argv[1] if argv[0] == 1 else argv[2]
    if op == EQ:
        return 1 if argv[0] == argv[1] else 0
    if op == ULT:
        return 1 if argv[0] < argv[1] else 0
    if op == ULE:
        return 1 if argv[0] <= argv[1] else 0
    raise SmtError("cannot evaluate operator %r" % op)


def all_true(terms: Iterable[Term], assignment: Dict[str, int],
             cache: Optional[Dict[int, int]] = None) -> bool:
    """True iff every boolean term evaluates to 1 under ``assignment``.

    Shares one memo table across the whole conjunction and bails at the
    first falsified conjunct — the hot path of witness replay (the query
    cache's pool probes and the engine's frames), where re-walking
    shared path-condition DAGs per conjunct (or building a fresh
    ``conjoin`` term per query) would dominate.
    """
    if cache is None:
        cache = {}
    probe = cache.get
    for term in terms:
        # Most conjuncts are memo hits: probe inline, walk only on a miss.
        value = probe(term._id)
        if value is None:
            value = _eval_cached(term, assignment, cache)
        if value != 1:
            return False
    return True


def _eval_cached(term: Term, assignment: Dict[str, int],
                 cache: Dict[int, int]) -> int:
    hit = cache.get(term._id)
    if hit is not None:
        return hit
    stack = [(term, False)]
    while stack:
        node, ready = stack.pop()
        if node._id in cache:
            continue
        if not ready:
            if node.op == CONST:
                cache[node._id] = node.value
                continue
            if node.op == VAR:
                cache[node._id] = assignment.get(node.name, 0) & mask(node.width)
                continue
            stack.append((node, True))
            for arg in node.args:
                stack.append((arg, False))
            continue
        argv = [cache[a._id] for a in node.args]
        cache[node._id] = _eval_op(node, argv)
    return cache[term._id]


def variables(term: Term) -> Dict[str, Term]:
    """All free variables in ``term``, keyed by name."""
    seen = set()
    found: Dict[str, Term] = {}
    stack = [term]
    while stack:
        node = stack.pop()
        if node._id in seen:
            continue
        seen.add(node._id)
        if node.op == VAR:
            found[node.name] = node
        else:
            stack.extend(node.args)
    return found


def term_size(term: Term) -> int:
    """Number of distinct nodes in the term DAG."""
    seen = set()
    stack = [term]
    while stack:
        node = stack.pop()
        if node._id in seen:
            continue
        seen.add(node._id)
        stack.extend(node.args)
    return len(seen)


# ---------------------------------------------------------------------------
# Stable structural digesting (the solver query-cache key material)
# ---------------------------------------------------------------------------

_DIGEST_SIZE = 16


def _node_digest(node: Term, child_digests) -> bytes:
    hasher = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    hasher.update(node.op.encode("ascii"))
    hasher.update(b"|%d|" % node.width)
    if node.op == CONST:
        hasher.update(b"%x" % node.value)
    elif node.op == VAR:
        hasher.update(node.name.encode("utf-8", "surrogatepass"))
    if node.params:
        hasher.update(("<%s>" % ",".join(str(p) for p in node.params))
                      .encode("ascii"))
    for child in child_digests:
        hasher.update(child)
    return hasher.digest()


def digest(term: Term) -> bytes:
    """Stable structural digest of a term (16-byte blake2b).

    Unlike ``hash(term)`` (which keys on interning ids), the digest is a
    pure function of the term's structure: identical across pools,
    processes and runs.  This makes it safe cache-key material — the
    solver's query cache keys each ``check()`` on the *set* of conjunct
    digests, so conjunct order and duplication cannot split cache
    entries (see :func:`query_key`).  Digests are memoized on the term,
    so amortized cost is one blake2b per distinct node.
    """
    cached = term._digest
    if cached is not None:
        return cached
    stack = [(term, False)]
    while stack:
        node, ready = stack.pop()
        if node._digest is not None:
            continue
        if not ready:
            stack.append((node, True))
            for arg in node.args:
                if arg._digest is None:
                    stack.append((arg, False))
            continue
        node._digest = _node_digest(node, (a._digest for a in node.args))
    return term._digest


def query_key(conds: Iterable[Term]) -> frozenset:
    """Canonical, order-independent key for a conjunction of booleans.

    The key is the frozenset of per-conjunct digests: reordered or
    duplicated conjuncts produce the same key, which is exactly the
    equivalence the solver's query cache wants (a conjunction is a set).
    """
    return frozenset(digest(cond) for cond in conds)
