"""Truncated jet morphisms over a base category of partial maps.

A jet from (monoid A, point object X) to (B, Y) is a sequence
(f_*, f_1, .., f_N): the base map plus its multilinear symmetric derivative
tower, each f_n: A^n x X -> B defined exactly where f_* is.  Composition sums
over set partitions of the direction slots (the classical higher-order chain
rule); restriction, products, the additive-map embedding, the counit/
comultiplication pair and the derivative operator are all computed against a
small protocol of ten methods (product, then, tuple_map, select, restriction,
restricted_then, add, vanishing_terms, order_of, equal), so the construction
applies verbatim to its own output: jets of jets are jets whose base is the
jet category one level down.  The construction names no base: every base
map, object and monoid it touches goes through the protocol, and towers of
base maps, their serial form and the base's own order relations live with
the base's callers.  Composition builds the partition terms that
vanishing_terms does not prove zero.  The bang into the terminal object is
the empty select, select([o], []).  A sum of parallel maps is one call of
the base's add on all its terms, so partition terms are summed, not folded;
over jets it is the base's add on each component, the pointwise rule of tuple_jets.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import lru_cache

from .config import RunConfig
from .smooth import (
    EqOutcome,
    MonoidStructure,
    STRUCTURE_CACHE_SIZE,
    dn_blocks,
    insertion_slots,
)


class JetError(Exception):
    pass


class NonAdditiveMapError(JetError):
    pass


Partition = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All set partitions of {1..n} in canonical form: blocks ordered by least
    element, elements ascending.  Count is the n-th Bell number."""
    if n < 1:
        raise ValueError("partitions are enumerated for n >= 1")
    partitions: list[tuple[tuple[int, ...], ...]] = [((1,),)]
    for k in range(2, n + 1):
        extended = []
        for p in partitions:
            for i in range(len(p)):
                extended.append(p[:i] + (p[i] + (k,),) + p[i + 1:])
            extended.append(p + ((k,),))
        partitions = extended
    return tuple(partitions)


@dataclass(frozen=True, slots=True)
class FaaObject:
    """A pair of a (total) commutative monoid and a point object, both living
    in the same base category."""
    monoid: MonoidStructure
    point: object

    def __str__(self):
        return f"({self.monoid.carrier}, {self.point})"


@dataclass(frozen=True)  # unslotted, so weakly referable on 3.10 too (the composite table)
class JetMorphism:
    base: object  # category adapter of the components
    src: FaaObject
    dst: FaaObject
    star: object
    derivs: tuple
    # delta(self), built on first use and kept with the jet
    _delta: JetMorphism | None = field(default=None, init=False, repr=False,
                                       compare=False, hash=False)
    _hash: int | None = field(default=None, init=False, repr=False,
                              compare=False, hash=False)

    def __hash__(self):  # the dataclass hash, computed once
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(
                (self.base, self.src, self.dst, self.star, self.derivs)))
        return self._hash

    def __reduce__(self):  # rebuilt from its fields: the cached hash is per process
        return (JetMorphism, (self.base, self.src, self.dst, self.star, self.derivs))

    @property
    def order(self) -> int:
        return len(self.derivs)


def truncate_jet(f: JetMorphism, order: int) -> JetMorphism:
    if order >= f.order:
        return f
    return JetMorphism(f.base, f.src, f.dst, f.star, f.derivs[:order])


def lambda_object(m: MonoidStructure) -> FaaObject:
    """The object of vectors for a monoid: the carrier pointed at itself."""
    return FaaObject(m, m.carrier)


def jet_l0(obj: FaaObject) -> FaaObject:
    return lambda_object(obj.monoid)


@lru_cache(maxsize=STRUCTURE_CACHE_SIZE)
def _product_monoid(cat, monoids: tuple[MonoidStructure, ...]) -> MonoidStructure:
    """Product monoid: the carriers side by side, each summed by its own
    addition on its two copies (the middle-interchange), the zeros side by
    side."""
    carriers = [m.carrier for m in monoids]
    k = len(carriers)
    order = cat.order_of(monoids[0].add)
    add = cat.tuple_map([cat.then(cat.select(carriers * 2, [i, k + i], order), m.add)
                         for i, m in enumerate(monoids)])
    zero = cat.tuple_map([m.zero for m in monoids])
    return MonoidStructure(cat.product(carriers), add, zero)


@lru_cache(maxsize=STRUCTURE_CACHE_SIZE)
def trivial_monoid(cat) -> MonoidStructure:
    """The monoid on the terminal object, the empty product."""
    t = cat.product([])
    return MonoidStructure(t, cat.select([t, t], [], 0), cat.select([t], [0], 0))


def product_objects(cat, objs) -> FaaObject:
    """The product of jet objects: the product monoid, at the product of the
    points."""
    if not objs:
        return FaaObject(trivial_monoid(cat), cat.product([]))
    return FaaObject(_product_monoid(cat, tuple(o.monoid for o in objs)),
                     cat.product([o.point for o in objs]))


@lru_cache(maxsize=STRUCTURE_CACHE_SIZE)
def monoid_zero_arrow(cat, dom_obj, monoid: MonoidStructure, order):
    """The zero map dom -> carrier (total; callers restrict explicitly);
    equal arguments give the same arrow object.  Into the terminal object it
    is the bang, the empty select, at the given order."""
    bang = cat.select([dom_obj], [], order)
    return bang if monoid.carrier == cat.product([]) else cat.then(bang, monoid.zero)


def _vector_blocks(obj: FaaObject, n: int) -> list:
    return [obj.monoid.carrier] * n + [obj.point]


# --- structural jets -------------------------------------------------------------

def linear_block_jet(cat, src: FaaObject, dst: FaaObject, point_map, carrier_map,
                     order: int) -> JetMorphism:
    """A total jet (p, pi_0 l, 0, 0, ...) from a point-level map and an
    additive carrier-level map; projections, selections and identities all
    have this shape."""
    blocks = [src.monoid.carrier, src.point]
    f1 = cat.then(cat.select(blocks, [0], order), carrier_map)
    derivs = [f1] + _zero_tail(cat, src, dst.monoid, 2, order)
    return JetMorphism(cat, src, dst, point_map, tuple(derivs[:order]))


def _zero_tail(cat, src: FaaObject, m_dst: MonoidStructure, first: int,
               order: int) -> list:
    """The zero components n = first .. order of a jet out of src into m_dst."""
    return [monoid_zero_arrow(cat, cat.product(_vector_blocks(src, n)), m_dst, order)
            for n in range(first, order + 1)]


def identity_jet(obj: FaaObject, order: int, cat) -> JetMorphism:
    return select_jet([obj], [0], order, cat)


def select_jet(objs, picks, order: int, cat) -> JetMorphism:
    """The jet selecting the listed factors of a product; equal layouts give
    the same jet object."""
    return _select_jet(tuple(objs), tuple(picks), order, cat)


@lru_cache(maxsize=STRUCTURE_CACHE_SIZE)
def _select_jet(objs: tuple, picks: tuple[int, ...], order: int, cat) -> JetMorphism:
    src = product_objects(cat, list(objs))
    dst = product_objects(cat, [objs[i] for i in picks])
    point_map = cat.select([o.point for o in objs], picks, order)
    carrier_map = cat.select([o.monoid.carrier for o in objs], picks, order)
    return linear_block_jet(cat, src, dst, point_map, carrier_map, order)


def zero_jet(src: FaaObject, m_dst: MonoidStructure, order: int, cat) -> JetMorphism:
    star = monoid_zero_arrow(cat, src.point, m_dst, order)
    return JetMorphism(cat, src, lambda_object(m_dst), star,
                       tuple(_zero_tail(cat, src, m_dst, 1, order)))


def lambda_embed(h, m_src: MonoidStructure, m_dst: MonoidStructure, order: int,
                 cat, cfg: RunConfig) -> JetMorphism:
    """Embed an additive zero-preserving carrier map as the jet
    (h, pi_0 h, 0, ...).  Additivity and zero preservation are verified by
    sampling under cfg; violations are rejected."""
    c = m_src.carrier
    sel_order = cat.order_of(h)
    both = [c, c]
    h_pair = cat.tuple_map([
        cat.then(cat.select(both, [0], sel_order), h),
        cat.then(cat.select(both, [1], sel_order), h),
    ])
    additive = cat.equal(cat.then(m_src.add, h), cat.then(h_pair, m_dst.add),
                         cfg, "lambda:additive")
    if not additive.ok:
        raise NonAdditiveMapError(f"map is not additive: {additive.note}")
    zero_ok = cat.equal(cat.then(m_src.zero, h), m_dst.zero, cfg, "lambda:zero")
    if not zero_ok.ok:
        raise NonAdditiveMapError("map does not preserve zero")
    return linear_block_jet(cat, lambda_object(m_src), lambda_object(m_dst), h, h, order)


def epsilon(f: JetMorphism):
    """Counit: extract the base map."""
    return f.star


# --- composition -----------------------------------------------------------------

def _check_composable(f: JetMorphism, g: JetMorphism):
    cat = f.base
    if g.base != cat:
        raise JetError("jets live over different bases")
    if f.dst != g.src:
        differ = "points" if f.dst.point != g.src.point else "monoids"
        raise JetError(f"cannot compose {f.dst} into {g.src}: their {differ} differ")


# The composite of each pair of factors, while it lives.  A key holds weak
# references to the factors, which hash and compare as their referents, so
# equal factors find it; an entry keeps neither factor alive and goes when its
# composite goes, as the expression nodes of expr._NODES do.
_COMPOSITES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def compose_jets(f: JetMorphism, g: JetMorphism) -> JetMorphism:
    """Diagrammatic composite f then g.  Each component is the partition sum:
    (fg)_n = sum over partitions {B_1..B_k} of {1..n} of
    g_k(f_|B_1|(v_B1; x), ..., f_|B_k|(v_Bk; x); f_*(x)).  Orders are
    truncated to the shorter operand (the usable-order pyramid).  Terms the
    base proves to be the zero map with the others' guard (vanishing_terms)
    are not built, so the sum is the literal one, node for node.  Equal
    factors give the same composite object while it lives."""
    key = (weakref.ref(f), weakref.ref(g))
    out = _COMPOSITES.get(key)
    if out is None:
        _check_composable(f, g)
        order = min(f.order, g.order)
        vanishes = f.base.vanishing_terms(f.star, f.derivs[:order],
                                          g.star, g.derivs[:order])
        out = _COMPOSITES[key] = _partition_sum(f, g, vanishes)
    return out


def _partition_sum(f: JetMorphism, g: JetMorphism, vanishes) -> JetMorphism:
    """f then g, summing at each order the terms that vanishes, the base's
    answer, does not prove zero, or one term if it proves all; the caller
    has checked that the jets compose."""
    cat = f.base
    order = min(f.order, g.order)
    star = cat.then(f.star, g.star)
    derivs = []
    for n in range(1, order + 1):
        partitions = enumerate_partitions(n)
        if vanishes is not None:
            zero, masks = vanishes
            partitions = [p for p in partitions if not (
                masks[len(p) - 1] == -1
                or any(masks[len(p) - 1] >> j & 1 and zero[len(block) - 1]
                       for j, block in enumerate(p)))] or partitions[:1]
        blocks = _vector_blocks(f.src, n)
        point = cat.then(cat.select(blocks, [n], cat.order_of(f.star)), f.star)
        # f_|B|(v_B; x) for each block B of {1..n}: blocks recur across the
        # partitions, so each is built once for this order
        block_args = {}
        terms = []
        for partition in partitions:
            for block in partition:
                if block not in block_args:
                    comp = f.derivs[len(block) - 1]
                    sel = cat.select(blocks, [b - 1 for b in block] + [n],
                                     cat.order_of(comp))
                    block_args[block] = cat.then(sel, comp)
            args = [block_args[block] for block in partition] + [point]
            terms.append(cat.then(cat.tuple_map(args), g.derivs[len(partition) - 1]))
        derivs.append(cat.add(terms))
    return JetMorphism(cat, f.src, g.dst, star, tuple(derivs))


def _pointwise(combine, jets, dst: FaaObject) -> JetMorphism:
    """combine of the jets' stars and of their components, to the shortest order."""
    order = min(j.order for j in jets)
    return JetMorphism(jets[0].base, jets[0].src, dst, combine([j.star for j in jets]),
                       tuple(combine([j.derivs[n] for j in jets]) for n in range(order)))


def tuple_jets(jets) -> JetMorphism:
    cat = jets[0].base
    return _pointwise(cat.tuple_map, jets, product_objects(cat, [j.dst for j in jets]))


def restriction_jet(f: JetMorphism) -> JetMorphism:
    """(rs f_*, rs(pi_1 f_*) pi_0, rs(pi_2 f_*) 0, ...): the restriction
    idempotent of a jet; guards mention only the point block."""
    return _restriction_jet(f.base, f.src, f.star, f.order)


def _restriction_jet(cat, src: FaaObject, star, order: int) -> JetMorphism:
    """The restriction idempotent of any jet with this source, star and
    order: it reads no other component."""
    hint = cat.order_of(star)
    derivs = []
    for n in range(1, order + 1):
        blocks = _vector_blocks(src, n)
        idem = cat.restricted_then(cat.select(blocks, [n], hint), star)
        if n == 1:
            body = cat.select(blocks, [0], hint)
        else:
            body = monoid_zero_arrow(cat, cat.product(blocks), src.monoid, hint)
        derivs.append(cat.then(idem, body))
    return JetMorphism(cat, src, src, cat.restriction(star), tuple(derivs))


# --- equality, order, compatibility ------------------------------------------------

def _combine(outcomes) -> EqOutcome:
    worst = 0.0
    samples = 0
    for out in outcomes:
        samples += out.samples
        if out.status != "pass":
            return EqOutcome(out.status, out.worst_residual, out.witness, out.note, samples)
        worst = max(worst, out.worst_residual)
    return EqOutcome("pass", worst, None, "", samples)


def _componentwise(relation, f: JetMorphism, g: JetMorphism, cfg: RunConfig,
                   label: str) -> EqOutcome:
    """Decide a relation on component maps (the base's equal, or an order
    relation of the base) on each pair of components up to the common usable
    order."""
    order = min(f.order, g.order)
    outcomes = [relation(f.star, g.star, cfg, f"{label}:*")]
    for n in range(1, order + 1):
        outcomes.append(relation(f.derivs[n - 1], g.derivs[n - 1], cfg, f"{label}:{n}"))
    return _combine(outcomes)


def jet_equal(f: JetMorphism, g: JetMorphism, cfg: RunConfig, label: str) -> EqOutcome:
    """Componentwise equality up to the common usable order."""
    return _componentwise(f.base.equal, f, g, cfg, label)


def is_total(f: JetMorphism, cfg: RunConfig, label: str = "total") -> bool:
    """Total iff the jet's restriction is the identity jet."""
    rid = identity_jet(f.src, f.order, f.base)
    return jet_equal(restriction_jet(f), rid, cfg, label).ok


# --- the derivative on jets ----------------------------------------------------------

def _derivative_tail_term(cat, f: JetMorphism, n: int, blocks):
    """The f_{n+1}(c, b_1..b_n; x) term of the derivative's n-th component."""
    comp = f.derivs[n]
    picks = [2 * n] + [2 * j + 1 for j in range(n)] + [2 * n + 1]
    sel = cat.select(blocks, picks, cat.order_of(comp))
    return cat.then(sel, comp)


def derivative_jet(f: JetMorphism) -> JetMorphism:
    """D on jets: source L0(S) x S, target L0(T), one order consumed.

    Component n at directions (a_1,b_1)..(a_n,b_n) and point (c,x):
        sum_i f_n(a_i, b_1,..,^b_i,..,b_n; x)  +  f_{n+1}(c, b_1,..,b_n; x).
    The order-1 case is the two-term formula forced by linearity of the
    comultiplication's first component; higher orders extend it so that the
    tower of a coalgebra image is the coalgebra image of the tower."""
    if f.order < 1:
        raise JetError("derivative consumed the whole jet order")
    cat = f.base
    src = product_objects(cat, [lambda_object(f.src.monoid), f.src])
    dst = lambda_object(f.dst.monoid)
    order = f.order - 1
    star = f.derivs[0]
    car = f.src.monoid.carrier
    derivs = []
    for n in range(1, order + 1):
        # fine-grained block layout of (AxA)^n x (AxX)
        blocks = [car, car] * n + [car, f.src.point]
        terms = []
        for i in range(n):
            picks = [2 * i] + [2 * j + 1 for j in range(n) if j != i] + [2 * n + 1]
            comp = f.derivs[n - 1]
            sel = cat.select(blocks, picks, cat.order_of(comp))
            terms.append(cat.then(sel, comp))
        terms.append(_derivative_tail_term(cat, f, n, blocks))
        derivs.append(cat.add(terms))
    return JetMorphism(cat, src, dst, star, tuple(derivs))


# --- the category adapter: jets over a base are themselves a base ---------------------

@dataclass(frozen=True, slots=True)
class FaaCategory:
    base: object

    def product(self, objs):
        return product_objects(self.base, list(objs))

    def then(self, f: JetMorphism, g: JetMorphism):
        return compose_jets(f, g)

    def tuple_map(self, maps):
        return tuple_jets(list(maps))

    def select(self, blocks, picks, order: int):
        return select_jet(list(blocks), list(picks), order, self.base)

    def restriction(self, f: JetMorphism):
        return restriction_jet(f)

    def restricted_then(self, f: JetMorphism, g: JetMorphism):
        """restriction(then(f, g)) from the composite's star alone, without
        its partition sums."""
        _check_composable(f, g)
        base = self.base
        return _restriction_jet(base, f.src, base.then(f.star, g.star),
                                min(f.order, g.order))

    def add(self, jets):
        """The base's add on the stars and on each component, to the shortest order."""
        f = jets[0]
        if any(j.src != f.src or j.dst != f.dst for j in jets):
            raise JetError("sum wants parallel jets")
        return f if len(jets) == 1 else _pointwise(self.base.add, jets, f.dst)

    def vanishing_terms(self, f_star, f_derivs, g_star, g_derivs):
        """No proof over jets: jets of jets compose by the literal sum."""
        return None

    def order_of(self, f: JetMorphism) -> int:
        return f.order

    def equal(self, f, g, cfg, label) -> EqOutcome:
        return jet_equal(f, g, cfg, label)


@lru_cache(maxsize=None)
def faa_over(base) -> FaaCategory:
    return FaaCategory(base)


# --- the comultiplication --------------------------------------------------------------

@lru_cache(maxsize=STRUCTURE_CACHE_SIZE)
def jet_L(obj: FaaObject, cat, order: int) -> MonoidStructure:
    """The vector-object monoid of a jet-category object: the embedded image
    of the object's own monoid; equal objects share one."""
    m = obj.monoid
    vectors = lambda_object(m)
    add = linear_block_jet(cat, product_objects(cat, [vectors, vectors]), vectors,
                           m.add, m.add, order)
    zero = linear_block_jet(cat, lambda_object(trivial_monoid(cat)), vectors,
                            m.zero, m.zero, order)
    return MonoidStructure(vectors, add, zero)


def delta_object(obj: FaaObject, cat, order: int) -> FaaObject:
    return FaaObject(jet_L(obj, cat, order), obj)


def faa_d_n(f: JetMorphism, dnf: JetMorphism, n: int) -> JetMorphism:
    """Symmetric n-th derivative of a jet from its n-fold derivative dnf:
    zero-insertion into dnf, exactly as in the base model."""
    cat = f.base
    fb = faa_over(cat)
    inner = f.order - n
    src_blocks = [jet_l0(f.src)] * n + [f.src]
    src_obj = product_objects(cat, src_blocks)
    entries = []
    for block, slot in zip(dn_blocks(f.src, n, jet_l0), insertion_slots(n)):
        if slot[0] == "zero":
            entries.append(zero_jet(src_obj, block.monoid, inner, cat))
        else:
            pick = slot[1] - 1 if slot[0] == "v" else n
            entries.append(fb.select(src_blocks, [pick], inner))
    return fb.then(fb.tuple_map(entries), dnf)


def delta(f: JetMorphism) -> JetMorphism:
    """Comultiplication: the jet of jets (f, D f, D_2 f, ...), a morphism one
    level up whose star is f itself.  Component n has usable order N - n; an
    order-0 jet yields the star-only double jet.  The n-fold derivatives come
    from one chain D f, D^2 f, ..., and the result is kept on f."""
    if f._delta is not None:
        return f._delta
    cat = f.base
    derivs = []
    dnf = f
    for n in range(1, f.order + 1):
        dnf = derivative_jet(dnf)
        derivs.append(faa_d_n(f, dnf, n))
    src2 = delta_object(f.src, cat, f.order)
    dst2 = delta_object(f.dst, cat, f.order)
    out = JetMorphism(faa_over(cat), src2, dst2, f, tuple(derivs))
    object.__setattr__(f, "_delta", out)
    return out


def map_jet(f: JetMorphism, morphism_fn, object_fn, new_base) -> JetMorphism:
    """Apply a product-preserving functor componentwise (the endofunctor's
    action on a jet one level up)."""
    return JetMorphism(
        new_base, object_fn(f.src), object_fn(f.dst),
        morphism_fn(f.star), tuple(morphism_fn(d) for d in f.derivs))


def faa_epsilon_jet(f: JetMorphism) -> JetMorphism:
    """The endofunctor applied to the counit: extract every component's star."""
    inner = f.star.base
    return map_jet(f, epsilon, lambda o: o.point, inner)


def faa_delta_jet(f: JetMorphism) -> JetMorphism:
    """The endofunctor applied to the comultiplication, componentwise.  The
    object action sends both the monoid data and the point through delta."""
    inner = f.star.base
    order = f.star.order

    def obj_fn(o: FaaObject) -> FaaObject:
        return FaaObject(
            MonoidStructure(delta_object(o.monoid.carrier, inner, order),
                            delta(o.monoid.add), delta(o.monoid.zero)),
            delta_object(o.point, inner, order))

    return map_jet(f, delta, obj_fn, faa_over(inner))


# --- linearity ----------------------------------------------------------------------------

def is_linear(f: JetMorphism, cfg: RunConfig, label: str = "linear") -> bool:
    """Between linear objects: D(f) equals the first projection followed by f."""
    cat = f.base
    if not all(o.point == o.monoid.carrier for o in (f.src, f.dst)):
        raise JetError("linearity is defined between linear objects only")
    if f.order < 1:
        raise JetError("order exhausted")
    lhs = derivative_jet(f)
    fb = faa_over(cat)
    pi0 = fb.select([lambda_object(f.src.monoid), f.src], [0], f.order - 1)
    rhs = fb.then(pi0, truncate_jet(f, f.order - 1))
    return jet_equal(lhs, rhs, cfg, label).ok
