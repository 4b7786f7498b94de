"""Semi-direct products of a free group by a lattice or by a free acting group.

An element is a pair (w, p): a free part ``w`` in F_d and an acting part
``p`` in P, where P is either Z^k (``kind="lattice"``, p is an integer
vector) or a free group of rank k (``kind="free"``, p is a reduced word over
the acting generators). Each acting generator t_j carries an automorphism
θ_j of F_d, and multiplication twists the second free part by the
automorphism accumulated along the first acting part:

    (w1, p1) · (w2, p2) = (w1 · Θ(p1)(w2), p1 p2)

where Θ(p) composes the θ_j along p. The inverse is
(w, p)^-1 = (Θ(p^-1)(w^-1), p^-1). With k = 0 the acting part is trivial and
the product degenerates to F_d itself; with every θ_j the identity it is the
direct product.

Gauge: |(w, p)| = |w| + |p| with |p| the ℓ¹ norm (lattice) or word length
(free). This is the word length for the standard generating set whenever all
θ-images are single letters, and an equivalent gauge otherwise, which is all
the moment computations need.

``ActingGroup`` gives each part it meets an id (``part_id``): a lattice part
is its own id, and a free part is a node of the acting group's Cayley tree,
an int. Walks step ids (``step_id``) and read Θ by id (``automorphism_at``),
so a free part's word is built only when it is read back (``part_at``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Union

from .errors import ConfigError
from .morphisms import Automorphism, _conjugator, identity_automorphism
from .words import Word, _reduced_word, free_reduce

__all__ = [
    "ActingGroup",
    "ExtElement",
    "ModuliSpec",
    "PermKernelSpec",
    "ball",
    "element_key",
    "ext_identity",
    "ext_inverse",
    "ext_multiply",
    "gauge_length",
    "in_sublattice",
    "standard_generators",
]

LatticeVec = tuple[int, ...]
ActingPart = Union[LatticeVec, Word]


class ActingGroup:
    """The acting group P together with its θ-homomorphism into Aut(F_d).

    For a lattice the θ_j must pairwise commute as automorphisms; since an
    automorphism is determined by its generator images, commutation is checked
    exactly on generators at construction. For a free acting group no relation
    is imposed.

    Accumulated automorphisms Θ(p) are memoized per instance, keyed by part
    id (``part_id``). A free acting group's ids are the nodes of a tree: id 0
    is the identity, ``_children`` maps (id, signed acting letter) to the
    child's id, and ``_parent[n]`` and ``_last[n]`` are the parent's id and
    the last letter of id n's part. The tree and the cache are confined to
    one process and start empty after a pickle round trip; parallel workers
    each build their own, and results never depend on their state.
    """

    __slots__ = (
        "kind", "k", "base_rank", "theta", "_signed_theta", "_cache", "_twist_cache",
        "_children", "_parent", "_last",
    )

    def __init__(self, kind: str, theta: tuple[Automorphism, ...], base_rank: int):
        if kind not in ("lattice", "free"):
            raise ConfigError(f"unknown acting-group kind {kind!r}")
        theta = tuple(theta)
        if kind == "free" and not theta:
            raise ConfigError("a free acting group needs rank >= 1")
        for phi in theta:
            if phi.rank != base_rank:
                raise ConfigError(
                    f"θ automorphism has rank {phi.rank}, base has rank {base_rank}"
                )
        if kind == "lattice":
            for i in range(len(theta)):
                for j in range(i + 1, len(theta)):
                    if theta[i].compose(theta[j]) != theta[j].compose(theta[i]):
                        raise ConfigError(
                            f"lattice θ automorphisms {i + 1} and {j + 1} do not commute"
                        )
        self.kind = kind
        self.k = len(theta)
        self.base_rank = base_rank
        self.theta = theta
        self._start_caches()

    def _start_caches(self) -> None:
        # θ_j under the signed letter j and θ_j^-1 under -j, built once
        self._signed_theta = {}
        for j, phi in enumerate(self.theta, start=1):
            self._signed_theta[j] = phi
            self._signed_theta[-j] = phi.inverse()
        self._cache: dict[object, Automorphism] = {}
        # always empty, kept because bench/tracing.py reads its size
        self._twist_cache: dict = {}
        # a free acting group's tree, the root alone
        self._children: dict[tuple[int, int], int] = {}
        self._parent = [0]
        self._last = [0]

    @classmethod
    def trivial(cls, base_rank: int) -> "ActingGroup":
        """No acting part: the bare free group F_d."""
        return cls("lattice", (), base_rank)

    # -- acting-part arithmetic ------------------------------------------------

    def identity_part(self) -> ActingPart:
        if self.kind == "lattice":
            return (0,) * self.k
        return Word.identity(self.k)

    def part_multiply(self, p: ActingPart, q: ActingPart) -> ActingPart:
        if self.kind == "lattice":
            return tuple(a + b for a, b in zip(p, q))
        return p * q

    def part_inverse(self, p: ActingPart) -> ActingPart:
        if self.kind == "lattice":
            return tuple(-a for a in p)
        return p.inverse()

    def part_is_identity(self, p: ActingPart) -> bool:
        if self.kind == "lattice":
            return not any(p)
        return not p

    def part_key(self, p: ActingPart) -> tuple[int, ...]:
        """Hashable canonical form, shared by both kinds."""
        if self.kind == "lattice":
            return p
        return p.letters

    def check_part(self, p: ActingPart) -> None:
        if self.kind == "lattice":
            if not (isinstance(p, tuple) and len(p) == self.k and all(isinstance(a, int) for a in p)):
                raise ConfigError(f"acting part {p!r} is not a length-{self.k} integer vector")
        else:
            if not (isinstance(p, Word) and p.rank == self.k):
                raise ConfigError(f"acting part {p!r} is not a rank-{self.k} word")

    def parse_part(self, text: str) -> ActingPart:
        """Lattice parts as comma-separated integers, free parts as words."""
        text = text.strip()
        if self.kind == "lattice":
            if self.k == 0:
                if text not in ("", "0"):
                    raise ConfigError(f"trivial acting group takes part '0', got {text!r}")
                return ()
            try:
                vec = tuple(int(t) for t in text.split(","))
            except ValueError as exc:
                raise ConfigError(f"bad lattice vector {text!r}") from exc
            if len(vec) != self.k:
                raise ConfigError(f"lattice vector {text!r} has length {len(vec)}, need {self.k}")
            return vec
        return Word.parse(self.k, text)

    def format_part(self, p: ActingPart) -> str:
        if self.kind == "lattice":
            return ",".join(str(a) for a in p) if self.k else "0"
        return str(p)

    # -- part ids and the accumulated automorphism Θ(p) ------------------------

    def part_id(self, p: ActingPart):
        """p's key in the Θ cache: a lattice part itself, a free part's tree id.

        A free part's id is found by descending the tree from the root along
        p's letters, adding the nodes not met before.
        """
        if self.kind == "lattice":
            return p
        return self.step_id(0, p)

    def step_id(self, pid, m: ActingPart):
        """The id of p·m, for the part p at id ``pid``.

        On a free acting group m's letters step through the tree: a letter
        that cancels the last letter of the current id's part returns its
        parent, any other its child, added on first use. No word is built.
        """
        if self.kind == "lattice":
            return tuple(a + b for a, b in zip(pid, m))
        parent, last, children = self._parent, self._last, self._children
        for s in m.letters:
            if last[pid] == -s:
                pid = parent[pid]
                continue
            child = children.get((pid, s))
            if child is None:
                child = children[pid, s] = len(parent)
                parent.append(pid)
                last.append(s)
            pid = child
        return pid

    def part_at(self, pid) -> ActingPart:
        """The part at id ``pid``; a free part's letters are read up the tree."""
        if self.kind == "lattice":
            return pid
        letters = []
        parent, last = self._parent, self._last
        while pid:
            letters.append(last[pid])
            pid = parent[pid]
        letters.reverse()
        return _reduced_word(self.k, tuple(letters))

    def automorphism_for(self, p: ActingPart) -> Automorphism:
        """Θ(p); for a lattice ∏ θ_j^{p_j}, for a free part the composition along p.

        The cached Θ at p's id (``automorphism_at``): a free part descends
        the tree along its letters, so the walk, the probes and
        ``ext_multiply`` share one object per part.
        """
        return self.automorphism_at(self.part_id(p))

    def automorphism_at(self, pid) -> Automorphism:
        """Θ(p) for the part p at id ``pid``, cached under the id.

        Θ(p) = Θ(q)∘θ_j^{±1}, where q is the parent in the tree of a free
        part, or peels one unit off the first nonzero coordinate of a lattice
        part (the θ_j commute). Composing the long Θ(q) after the short θ
        substitutes whole images, and every Θ(q) on the way is cached first,
        so a parent's entry always precedes its children's and long walks
        pay per new acting position only. Θ(p)'s inverse is built from its
        operands when first read (``Automorphism._inverse_table``), so
        reading it never grows the cache, and reading the cache's inverses
        in insertion order costs one substitution each.
        """
        cache = self._cache
        cached = cache.get(pid)
        if cached is not None:
            return cached
        # walk up to the nearest cached id, then compose back down
        chain = []
        if self.kind == "lattice":
            while pid not in cache and any(pid):
                j = next(i for i, a in enumerate(pid) if a)
                step = 1 if pid[j] > 0 else -1
                chain.append((pid, step * (j + 1)))
                pid = pid[:j] + (pid[j] - step,) + pid[j + 1 :]
        else:
            parent, last = self._parent, self._last
            while pid not in cache and pid:
                chain.append((pid, last[pid]))
                pid = parent[pid]
        result = cache.get(pid)
        if result is None:
            result = cache[pid] = identity_automorphism(self.base_rank)
        for pid, letter in reversed(chain):
            result = cache[pid] = result.compose(self._signed_theta[letter])
        return result

    def conjugators(self) -> dict[int, tuple[int, ...]] | None:
        """g_s for each signed acting letter s when every θ_j is inner, else None.

        θ_j is conjugation by g_j, read from its images
        (``morphisms._conjugator``), and -j maps to g_j⁻¹. The product of the
        g_s along p (``conjugator_of``) is then a homomorphism c from P into
        F_d with Θ(p) conjugation by c(p): for a free P by freeness, for a
        lattice because commuting θ_j have commuting conjugators, F_d being
        centerless at rank 2 and up (at rank 1 every g_j is 1).
        """
        out = {}
        for j, phi in enumerate(self.theta, start=1):
            g = _conjugator(phi)
            if g is None:
                return None
            out[j] = g
            out[-j] = tuple(-s for s in reversed(g))
        return out

    def conjugator_of(self, conjugators: dict, p: ActingPart) -> tuple[int, ...]:
        """c(p), the reduced product of ``conjugators`` (see ``conjugators``) along p."""
        if self.kind == "lattice":
            signed = [j if a > 0 else -j for j, a in enumerate(p, start=1) for _ in range(abs(a))]
        else:
            signed = p.letters
        return tuple(free_reduce(chain.from_iterable(conjugators[s] for s in signed)))

    # Kept, though the package no longer calls it: bench/tracing.py wraps it by name.
    def twist_letters(self, p: ActingPart, letters: tuple[int, ...]) -> tuple[int, ...]:
        """Reduced letters of Θ(p) applied to ``letters``.

        Not memoized. A one-letter word gets Θ(p)'s table entry itself, not
        a copy. A step graph twists its edges by the same rule from each
        node's Θ(p) (``walk.StepGraph.link``).
        """
        phi = self.automorphism_for(p)
        if len(letters) == 1:
            return phi._table[letters[0]]
        return tuple(phi.apply_letters(letters))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ActingGroup):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.base_rank == other.base_rank
            and self.theta == other.theta
        )

    def __getstate__(self):
        # caches are rebuilt lazily on the far side of a pickle round trip
        return (self.kind, self.k, self.base_rank, self.theta)

    def __setstate__(self, state) -> None:
        kind, k, base_rank, theta = state
        self.kind = kind
        self.k = k
        self.base_rank = base_rank
        self.theta = theta
        self._start_caches()

    def __repr__(self) -> str:
        name = "Z^%d" % self.k if self.kind == "lattice" else "Free(%d)" % self.k
        return f"ActingGroup({name} acting on F_{self.base_rank})"


@dataclass(frozen=True)
class ExtElement:
    """An element (w, p) of the extension."""

    w: Word
    p: ActingPart

    def __str__(self) -> str:
        if isinstance(self.p, Word):
            return f"({self.w}, {self.p})"
        return f"({self.w}, {','.join(str(a) for a in self.p) or '0'})"


def ext_identity(acting: ActingGroup) -> ExtElement:
    return ExtElement(Word.identity(acting.base_rank), acting.identity_part())


def ext_multiply(acting: ActingGroup, g1: ExtElement, g2: ExtElement) -> ExtElement:
    if g1.w.rank != acting.base_rank or g2.w.rank != acting.base_rank:
        raise ConfigError("free parts do not match the acting group's base rank")
    if acting.part_is_identity(g1.p) or not g2.w:
        twisted = g2.w
    else:
        twisted = acting.automorphism_for(g1.p).apply(g2.w)
    return ExtElement(g1.w * twisted, acting.part_multiply(g1.p, g2.p))


def ext_inverse(acting: ActingGroup, g: ExtElement) -> ExtElement:
    p_inv = acting.part_inverse(g.p)
    w_inv = g.w.inverse()
    if acting.part_is_identity(p_inv) or not w_inv:
        twisted = w_inv
    else:
        twisted = acting.automorphism_for(p_inv).apply(w_inv)
    return ExtElement(twisted, p_inv)


def gauge_length(g: ExtElement) -> int:
    p = g.p
    if isinstance(p, Word):
        return len(g.w) + len(p)
    return len(g.w) + sum(abs(a) for a in p)


def _map_distinct(fn, elements) -> list:
    """``[fn(g) for g in elements]``, calling ``fn`` once per distinct object.

    Samplers hand one element to every path that reaches it along an equal
    row, so gauging or rendering a batch costs its distinct elements only.
    Keyed by identity: hashing an element would hash its whole word.
    """
    values = {id(g): g for g in elements}
    for key, g in values.items():
        values[key] = fn(g)
    return [values[id(g)] for g in elements]


def element_key(acting: ActingGroup, g: ExtElement) -> tuple:
    """Hashable identity of an element, usable across both acting kinds."""
    return (g.w.letters, acting.part_key(g.p))


def standard_generators(acting: ActingGroup) -> list[ExtElement]:
    """The 2(d+k) signed standard generators (x_i^±, 0) and (1, t_j^±)."""
    gens: list[ExtElement] = []
    idp = acting.identity_part()
    for i in range(1, acting.base_rank + 1):
        for sign in (1, -1):
            gens.append(ExtElement(Word.generator(acting.base_rank, i, sign), idp))
    one = Word.identity(acting.base_rank)
    for j in range(acting.k):
        if acting.kind == "lattice":
            for sign in (1, -1):
                vec = tuple(sign if m == j else 0 for m in range(acting.k))
                gens.append(ExtElement(one, vec))
        else:
            for sign in (1, -1):
                gens.append(ExtElement(one, Word.generator(acting.k, j + 1, sign)))
    return gens


def ball(acting: ActingGroup, radius: int) -> list[ExtElement]:
    """All elements of gauge length <= radius, identity first, BFS order."""
    if radius < 0:
        raise ConfigError("radius must be >= 0")
    gens = standard_generators(acting)
    start = ext_identity(acting)
    seen = {element_key(acting, start)}
    out = [start]
    frontier = [start]
    for _ in range(radius):
        nxt = []
        for g in frontier:
            for s in gens:
                h = ext_multiply(acting, g, s)
                key = element_key(acting, h)
                if key not in seen:
                    seen.add(key)
                    nxt.append(h)
        out.extend(nxt)
        frontier = nxt
    return out


# -- finite-index subgroups of the acting part ----------------------------------


@dataclass(frozen=True)
class ModuliSpec:
    """p lies in the sublattice iff each coordinate is divisible by its modulus."""

    moduli: tuple[int, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(m, int) and m >= 1 for m in self.moduli):
            raise ConfigError(f"moduli must be positive integers, got {self.moduli}")


@dataclass(frozen=True)
class PermKernelSpec:
    """Kernel of a map from the free acting group to a finite permutation group.

    ``images[j]`` is the permutation (a tuple permuting range(degree))
    assigned to acting generator j+1; membership means the word maps to the
    identity permutation.
    """

    degree: int
    images: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        for perm in self.images:
            if sorted(perm) != list(range(self.degree)):
                raise ConfigError(f"{perm} is not a permutation of range({self.degree})")


SublatticeSpec = Union[ModuliSpec, PermKernelSpec]


def _word_permutation(p: Word, spec: PermKernelSpec) -> tuple[int, ...]:
    """The permutation of a free acting part; the identity for the empty word.

    Letters compose left to right as ``perm = perm ∘ image``, so the
    permutation of a product p·q is that of p composed with that of q.
    ``walk._sublattice_mask`` composes the atoms' permutations by this rule
    along a block of walks.
    """
    perm = list(range(spec.degree))
    for s in p.letters:
        img = spec.images[abs(s) - 1]
        if s < 0:
            inv = [0] * spec.degree
            for a, b in enumerate(img):
                inv[b] = a
            img = inv
        perm = [perm[x] for x in img]
    return tuple(perm)


def part_in_sublattice(acting: ActingGroup, p: ActingPart, spec: SublatticeSpec) -> bool:
    """Whether ``p`` lies in the subgroup: the one membership rule and spec check."""
    if isinstance(spec, ModuliSpec):
        if acting.kind != "lattice" or len(spec.moduli) != acting.k:
            raise ConfigError("moduli spec does not match the acting group")
        return all(a % m == 0 for a, m in zip(p, spec.moduli))
    if isinstance(spec, PermKernelSpec):
        if acting.kind != "free" or len(spec.images) != acting.k:
            raise ConfigError("permutation spec does not match the acting group")
        return _word_permutation(p, spec) == tuple(range(spec.degree))
    raise ConfigError(f"unknown sublattice spec {spec!r}")


def in_sublattice(acting: ActingGroup, g: ExtElement, spec: SublatticeSpec) -> bool:
    """Whether the acting part of ``g`` lies in the finite-index subgroup.

    The free part is unconstrained: the subgroup is F ⋊ L.
    """
    return part_in_sublattice(acting, g.p, spec)
