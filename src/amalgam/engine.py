"""Symbolic two-face free product over a shared commutative base.

Two faces (operator algebras A and B with a common diagonal D and
expectations onto it) generate a product algebra in which alternating words
of expectation-zero letters have zero expectation.  Elements are kept in a
normal form d + sum of alternating centered words; multiplication merges
letters at the seams and re-centers, which strictly shrinks words, so all
computations terminate and stay exact.

Two face backends exist: finite measured-relation algebras (fmalg) and
one-block crossed products of the boundary action (boundary).  The crossed
product of the full group doubles as an independent oracle for the
recursively computed expectation.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cache, cached_property, reduce

from .boundary import act
from .fmalg import FMElement, FiniteRelation
from .scalars import ONE, QC
from .words import ReducedWord


class DepthBudgetExceeded(RuntimeError):
    """A cylinder-function operation needed more depth than allowed."""


# ---------------------------------------------------------------------------
# cylinder step functions: the diagonal of the boundary backend

class CylFn:
    """Finite combination of cylinder indicators in canonical disjoint form.

    Canonical form: supports are pairwise non-nested and no complete family
    of sibling cylinders carries a common coefficient (it would merge into
    the parent).  This makes equality and zero-testing plain dict equality.
    """

    __slots__ = ("alphabet", "terms")

    def __init__(self, alphabet, terms):
        """terms: (prefix word, QC value) pairs, in any order and with
        repeated or nested prefixes; values on one cylinder add.  Callers
        pass QC values and _canonical sums from the int 0, so every stored
        value is a QC."""
        self.alphabet = alphabet
        self.terms = _canonical(alphabet, terms)

    @staticmethod
    def zero(alphabet):
        return CylFn(alphabet, ())

    @staticmethod
    def one(alphabet):
        return CylFn(alphabet, [(ReducedWord.identity(alphabet), ONE)])

    @staticmethod
    def indicator(prefix: ReducedWord):
        return CylFn(prefix.alphabet, [(prefix, ONE)])

    def depth(self):
        return max((len(w) for w in self.terms), default=0)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise ValueError("cylinder functions over different alphabets")
        return CylFn(self.alphabet, [*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return CylFn(self.alphabet, ((w, -v) for w, v in self.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Pointwise product; supports pair off only when nested."""
        if self.alphabet is not other.alphabet and self.alphabet != other.alphabet:
            raise ValueError("cylinder functions over different alphabets")
        return CylFn(self.alphabet, (
            (w1 if len(w1) >= len(w2) else w2, v1 * v2)
            for w1, v1 in self.terms.items() for w2, v2 in other.terms.items()
            if w1.starts_with(w2) or w2.starts_with(w1)))

    def scale(self, scalar):
        scalar = QC.coerce(scalar)
        return CylFn(self.alphabet, ((w, scalar * v) for w, v in self.terms.items()))

    def adjoint(self):
        return CylFn(self.alphabet, ((w, v.conjugate()) for w, v in self.terms.items()))

    def translate(self, gamma: ReducedWord):
        """The function composed with translation by gamma inverse."""
        return CylFn(self.alphabet, ((image, v) for w, v in self.terms.items()
                                     for image in act(gamma, w)))

    def support_projection(self):
        return CylFn(self.alphabet, ((w, ONE) for w in self.terms))

    def value_at(self, word: ReducedWord):
        """Value on any point extending the given word; word must be deep."""
        if len(word) < self.depth():
            raise ValueError(
                f"word {word} is shallower than depth {self.depth()}")
        for w, v in self.terms.items():
            if word.starts_with(w):
                return v
        return QC(0)

    def __eq__(self, other):
        if not isinstance(other, CylFn):
            return NotImplemented
        return self.alphabet == other.alphabet and self.terms == other.terms

    def __repr__(self):
        """1*O(a b)+...: one term per cylinder, in sort_key order."""
        words = sorted(self.terms, key=ReducedWord.sort_key)
        return "+".join(f"{self.terms[w]!r}*O({w!r})" for w in words) or "0"


def _canonical(alphabet, terms):
    """Sum the (word, value) pairs into a prefix trie, push coefficients
    down it, then merge complete siblings and drop zeros; the one place
    that adds cylinder coefficients.  Both passes loop, so no term is too
    deep for the call stack."""
    root = [0, {}]
    for word, value in terms:
        node = root
        for letter in word.letters:
            node = node[1].setdefault(letter, [0, {}])
        node[0] = node[0] + value
    table = alphabet.extension_table
    leaves, order, families = {}, [], []
    stack = [((), 0, *root)]  # 0 is no letter: the root excludes none
    while stack:
        prefix, last, value, children = stack.pop()
        order.append(prefix)  # pre-order: a prefix before its extensions
        if not children:
            leaves[prefix] = value
            continue
        family = [prefix + (a,) for a in table[last, None]]
        families.append((prefix, family))
        for child in reversed(family):
            node = children.get(child[-1])
            stack.append((child, child[-1], value, {}) if node is None
                         else (child, child[-1], node[0] + value, node[1]))
    for prefix, family in reversed(families):  # children before parents
        value = leaves.get(family[0])  # None if that child kept children
        if value is not None and all(leaves.get(p) == value for p in family):
            for p in family:
                del leaves[p]
            leaves[prefix] = value  # all siblings constant and equal: merge up
    return {ReducedWord(alphabet, p): leaves[p] for p in order if leaves.get(p)}


# ---------------------------------------------------------------------------
# the algebra protocol: faces, the full-group oracle and the free product

class Algebra:
    """An algebra with a conditional expectation onto the diagonal D.

    Subclasses give one(), expect(x) and embed_d(d); the remaining
    operations default to the elements' own operators.
    """

    def mul(self, x, y):
        return x * y

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def adjoint(self, x):
        return x.adjoint()

    def is_zero(self, x):
        return x.is_zero()

    def split(self, x):
        """(E(x), x - E(x)): the diagonal part and the centered rest."""
        d = self.expect(x)
        return d, self.sub(x, self.embed_d(d))

    def d_mul(self, d, x, left):
        """d x when left, else x d, for d in the diagonal D."""
        embedded = self.embed_d(d)
        return self.mul(embedded, x) if left else self.mul(x, embedded)


# ---------------------------------------------------------------------------
# crossed product of the boundary action (full group or one block)

class CrossedFace(Algebra):
    """Crossed product face; block None means the full group (oracle side).

    An element, the finite sum of f_g u_g, is the plain dict {group word g:
    nonzero CylFn f_g}; the empty dict is zero.
    """

    def __init__(self, tag, alphabet, block=None, budget=6):
        if block not in (None, 1, 2):
            raise ValueError(f"block must be None, 1 or 2, not {block!r}")
        self.tag = tag
        self.alphabet = alphabet
        self.block = block
        self.budget = budget
        self.identity = ReducedWord.identity(alphabet)

    def guard(self, fn):
        """fn itself; DepthBudgetExceeded when it is deeper than the budget."""
        if fn.depth() > self.budget:
            raise DepthBudgetExceeded(
                f"cylinder depth {fn.depth()} exceeds budget {self.budget}")
        return fn

    def element(self, terms):
        clean = {}
        for word, fn in terms.items():
            if self.block is not None and not word.in_block(self.block):
                raise ValueError(f"word {word} is not in block {self.block}")
            self.guard(fn)
            if not fn.is_zero():
                clean[word] = fn
        return clean

    def unitary(self, word):
        return self.element({word: CylFn.one(self.alphabet)})

    def one(self):
        return self.unitary(self.identity)

    def zero(self):
        return {}

    def embed_d(self, fn: CylFn):
        return self.element({self.identity: fn})

    def expect(self, x) -> CylFn:
        fn = x.get(self.identity)
        return CylFn.zero(self.alphabet) if fn is None else fn

    # mul, add and adjoint trust their operands, elements of this face: block
    # words multiply within the block, and sums and products of cylinder
    # functions are no deeper than their terms, so only new translates need
    # the depth guard and only sums can cancel to zero
    def mul(self, x, y):
        out = {}
        for g, f in x.items():
            for h, k in y.items():
                word = g * h
                fn = f * self.guard(k.translate(g))
                if not fn.is_zero():
                    out[word] = out[word] + fn if word in out else fn
        return {w: fn for w, fn in out.items() if fn.terms}

    def add(self, x, y):
        out = dict(x)
        for w, fn in y.items():
            out[w] = out[w] + fn if w in out else fn
        return {w: fn for w, fn in out.items() if fn.terms}

    def neg(self, x):
        return {w: -fn for w, fn in x.items()}

    def adjoint(self, x):
        out = {}
        for g, f in x.items():
            out[g.inverse()] = self.guard(f.adjoint().translate(g.inverse()))
        return out

    def is_zero(self, x):
        return not x

    def right_support(self, x) -> CylFn:
        """Smallest diagonal projection q with x q = x."""
        ones = {image: ONE for g, f in x.items() for w in f.terms
                for image in act(g.inverse(), w)}
        return CylFn(self.alphabet, ones.items()).support_projection()

    def seam(self, a, b):
        """b cut to the right support q of a, so that a b = a (q b)."""
        return self.d_mul(self.right_support(a), b, left=True)

    def d_one(self):
        return CylFn.one(self.alphabet)

    def d_zero(self):
        return CylFn.zero(self.alphabet)


# ---------------------------------------------------------------------------
# finite measured-relation face

@cache
def _diagonal_relation(base):
    # both faces of a product share one diagonal relation
    return FiniteRelation.diagonal(base)


class FMFace(Algebra):
    """Face backed by a finite measured-relation algebra."""

    def __init__(self, tag, relation: FiniteRelation):
        self.tag = tag
        self.relation = relation
        self.drel = _diagonal_relation(relation.base)

    def element(self, coeffs):
        return FMElement(self.relation, coeffs)

    def unit(self, x, y):
        return FMElement.unit(self.relation, x, y)

    def one(self):
        return FMElement.one(self.relation)

    def zero(self):
        return FMElement.zero(self.relation)

    def embed_d(self, d: FMElement):
        return d.cast(self.relation)

    def expect(self, x: FMElement) -> FMElement:
        return x.expectation().cast(self.drel)

    def split(self, x: FMElement):
        """(E(x), x - E(x)) in one pass over the matrix units of x."""
        diagonal, centered = {}, {}
        for pair, value in x.coeffs.items():
            (diagonal if pair[0] == pair[1] else centered)[pair] = value
        return (FMElement._result(self.drel, diagonal),
                FMElement._result(self.relation, centered))

    def right_support(self, x) -> FMElement:
        return x.right_support().cast(self.drel)

    def d_mul(self, d: FMElement, x: FMElement, left):
        """d x or x d without a matrix product: d keeps the rows (left) or
        columns of x in its support and scales them by its entries; x
        itself when d is 1 on all of them."""
        entries = {p: s for (p, _), s in d.coeffs.items()}
        side = 0 if left else 1
        out, same = {}, True
        for pair, value in x.coeffs.items():
            s = entries.get(pair[side])
            if s is None:
                same = False
            elif s is ONE or s == ONE:
                out[pair] = value
            else:
                out[pair] = s * value
                same = False
        return x if same else FMElement._result(self.relation, out)

    def seam(self, a: FMElement, b: FMElement):
        """b cut to the right support of a, so that a b = a (cut b): the
        rows of b among the columns of a; b itself when all of them are."""
        cols = a.columns()
        for x, _ in b.coeffs:
            if x not in cols:
                return FMElement._result(self.relation, {
                    p: v for p, v in b.coeffs.items() if p[0] in cols})
        return b

    def d_one(self):
        return FMElement.one(self.drel)

    def d_zero(self):
        return FMElement.zero(self.drel)


# ---------------------------------------------------------------------------
# the free product

class MElement:
    """Normal form: diagonal part plus a sum of alternating centered words.

    A word is a nonempty tuple of (tag, x) letters: x is a nonzero element
    of face tag with zero expectation, and consecutive tags differ.
    Coefficients are absorbed into the letters.
    """

    __slots__ = ("product", "d_part", "words")

    def __init__(self, product, d_part, words):
        self.product = product
        self.d_part = d_part
        self.words = tuple(words)

    def expectation(self):
        return self.d_part

    def __add__(self, other):
        if other.product is not self.product:
            raise ValueError("elements of different free products")
        return MElement(self.product, self.d_part + other.d_part,
                        self.words + other.words)

    def __neg__(self):
        faces = self.product.faces
        negged = []
        for word in self.words:
            tag, x = word[0]
            negged.append(((tag, faces[tag].neg(x)),) + word[1:])
        return MElement(self.product, -self.d_part, negged)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if other.product is not self.product:
            raise ValueError("elements of different free products")
        return self.product.multiply(self, other)

    def adjoint(self):
        faces = self.product.faces
        words = [tuple((tag, faces[tag].adjoint(x)) for tag, x in reversed(word))
                 for word in self.words]
        return MElement(self.product, self.d_part.adjoint(), words)

    def __eq__(self, other):
        """Equal diagonal parts and equal words as a multiset, letter by
        letter (sufficient, not necessary)."""
        if not isinstance(other, MElement):
            return NotImplemented
        if self.d_part != other.d_part:
            return False
        rest = list(other.words)
        for word in self.words:
            if word not in rest:
                return False
            rest.remove(word)
        return not rest

    def __repr__(self):
        bits = [repr(self.d_part)] if not self.d_part.is_zero() else []
        bits += ["*".join(f"[{tag}:{x!r}]" for tag, x in w) for w in self.words]
        return " + ".join(bits) if bits else "0"


class FreeProduct:
    """Two faces over one diagonal; elements are MElements."""

    def __init__(self, face_a, face_b):
        if face_a.tag == face_b.tag:
            raise ValueError("faces need distinct tags")
        fm = isinstance(face_a, FMFace), isinstance(face_b, FMFace)
        if fm == (True, True):
            if face_a.relation.base != face_b.relation.base:
                raise ValueError("faces must share the base")
        elif fm == (False, False):
            if face_a.alphabet != face_b.alphabet or face_a.budget != face_b.budget:
                raise ValueError("faces must share alphabet and depth budget")
            if {face_a.block, face_b.block} != {1, 2}:
                raise ValueError("boundary faces must cover blocks 1 and 2")
        else:
            raise ValueError("mixed face backends are not supported")
        self.faces = {face_a.tag: face_a, face_b.tag: face_b}
        self.tags = (face_a.tag, face_b.tag)
        self.is_boundary = not fm[0]

    def face(self, tag):
        return self.faces[tag]

    def d_one(self):
        return self.faces[self.tags[0]].d_one()

    def d_zero(self):
        return self.faces[self.tags[0]].d_zero()

    def one(self):
        return MElement(self, self.d_one(), ())

    def zero(self):
        return MElement(self, self.d_zero(), ())

    def from_d(self, d):
        return MElement(self, d, ())

    def embed(self, tag, x) -> MElement:
        """A raw face element as an MElement: expectation plus centered rest."""
        face = self.faces[tag]
        d, centered = face.split(x)
        words = () if face.is_zero(centered) else (((tag, centered),),)
        return MElement(self, d, words)

    def letters_product(self, letters) -> MElement:
        """Fold a (tag, element) sequence into the product algebra."""
        embedded = [self.embed(tag, x) for tag, x in letters]
        return reduce(operator.mul, embedded) if embedded else self.one()

    # -- multiplication -----------------------------------------------------

    def multiply(self, x: MElement, y: MElement) -> MElement:
        x_zero, y_zero = x.d_part.is_zero(), y.d_part.is_zero()
        if x_zero:
            d_total = x.d_part  # the zero in hand, not a new product
        elif y_zero:
            d_total = y.d_part
        else:
            d_total = x.d_part * y.d_part
        words = []
        if not y_zero:
            words.extend(filter(None, (self._word_times_d(w, y.d_part, left=False)
                                       for w in x.words)))
        if not x_zero:
            words.extend(filter(None, (self._word_times_d(v, x.d_part, left=True)
                                       for v in y.words)))
        for w in x.words:
            for v in y.words:
                d_part, extra = self._word_mul(w, v)
                if d_part is not None:
                    d_total = d_total + d_part
                words.extend(extra)
        return MElement(self, d_total, words)

    def _word_times_d(self, word, d, left: bool):
        """Absorb a diagonal factor into the outer letter; None when zero."""
        if d.is_zero():
            return None
        tag, x = word[0] if left else word[-1]
        face = self.faces[tag]
        value = face.d_mul(d, x, left)
        if value is x:
            return word
        if face.is_zero(value):
            return None
        return ((tag, value),) + word[1:] if left else word[:-1] + ((tag, value),)

    def _word_mul(self, left, right):
        """Product of two words: (nonzero diagonal or None, [word]).
        A loop, one turn per merged seam, so long cancelling words fit."""
        words = []
        while True:
            (tag, a), (tag_b, b) = left[-1], right[0]
            if tag != tag_b:
                # no merge; a b = a (q b) for the right support q of a
                face = self.faces[tag_b]
                cut = face.seam(a, b)
                if cut is b:
                    words.append(left + right)
                elif not face.is_zero(cut):
                    words.append(left + ((tag_b, cut),) + right[1:])
                return None, words
            face = self.faces[tag]
            d, centered = face.split(face.mul(a, b))
            if not face.is_zero(centered):
                words.append(left[:-1] + ((tag, centered),) + right[1:])
            left, right = left[:-1], right[1:]
            if not (left and right):
                break
            right = self._word_times_d(right, d, left=True)
            if right is None:
                return None, words
        if left or right:
            scaled = self._word_times_d(left or right, d, left=not left)
            if scaled is not None:
                words.append(scaled)
            return None, words
        return None if d.is_zero() else d, words

    # -- expectation of raw letter sequences ---------------------------------

    def expectation(self, letters):
        """Expectation of a product of raw (face tag, face element) letters.

        Independent of the MElement normal form: merges same-face
        neighbours, then expands letters into centered + diagonal parts.
        The all-centered alternating term vanishes; every other term drops
        at least one letter, so the recursion terminates.
        """
        return self._expect(self._merge_neighbours(letters), 0)

    def _merge_neighbours(self, seq):
        out = []
        for tag, x in seq:
            if out and out[-1][0] == tag:
                face = self.faces[tag]
                out[-1] = (tag, face.mul(out[-1][1], x))
            else:
                out.append((tag, x))
        return out

    def _expect(self, seq, known_centered):
        """seq[:known_centered] is centered already; the scan overwrites
        each later letter of seq with its centered part."""
        m = len(seq)
        if m == 0:
            return self.d_one()
        if m == 1:
            tag, x = seq[0]
            return self.faces[tag].expect(x)
        total = self.d_zero()
        for i in range(known_centered, m):
            tag_i, x_i = seq[i]
            face_i = self.faces[tag_i]
            # the generic split, not FMFace.split: the tests check the normal
            # form, which uses it, against this recursion
            d_i, centered = Algebra.split(face_i, x_i)
            if not d_i.is_zero() and i < m - 1:
                tag_n, x_n = seq[i + 1]
                face_n = self.faces[tag_n]
                # the general product, not d_mul: criterion 06 checks the
                # normal form, which uses d_mul, against this recursion
                absorbed = face_n.mul(face_n.embed_d(d_i), x_n)
                if not face_n.is_zero(absorbed):
                    # the absorbed letter merges with the centered one before
                    rest = seq[:i] + [(tag_n, absorbed)] + seq[i + 2:]
                    total = total + self._expect(
                        self._merge_neighbours(rest), max(i - 1, 0))
            # the i == m-1 diagonal branch is a centered alternating word
            # times a diagonal on the right: its expectation vanishes
            if face_i.is_zero(centered):
                return total  # later branches all contain this zero letter
            seq[i] = (tag_i, centered)
        return total

    @cached_property
    def _oracle_start(self):
        """The full-group face of the oracle, built once."""
        some_face = self.faces[self.tags[0]]
        return CrossedFace("M", some_face.alphabet, None, some_face.budget)

    def oracle_expectation(self, letters) -> CylFn:
        """Direct crossed-product computation; boundary backend only."""
        if not self.is_boundary:
            raise ValueError("the oracle needs the boundary backend")
        full = self._oracle_start
        xs = [x for _, x in letters]
        return full.expect(reduce(full.mul, xs) if xs else full.one())

    # -- semantic equality up to padded moments ------------------------------

    def weak_equal(self, x: MElement, y: MElement, pads) -> bool:
        """Moment test E(a (x-y) b) = 0 over the given padding elements."""
        z = x - y
        pads = [self.one()] + list(pads)
        for a in pads:
            for b in pads:
                if not (a * z * b).d_part.is_zero():
                    return False
        return True


class MAmbient(Algebra):
    """The free product itself as an algebra over D, for MElements."""

    def __init__(self, product: FreeProduct):
        self.product = product

    def one(self):
        return self.product.one()

    def expect(self, x):
        return x.d_part

    def embed_d(self, d):
        return self.product.from_d(d)


# ---------------------------------------------------------------------------
# checks shared by all backends

# the word count grows exponentially with max_len, so a sweep with more
# words than this (36x criterion 07) is refused before it starts
FREENESS_WORD_BOUND = 10 ** 6


@dataclass
class SweepReport:
    name: str
    fixture: str
    checked: int = 0
    failures: list = field(default_factory=list)
    values: list = field(default_factory=list)  # observed beyond the count

    @property
    def passed(self):
        return not self.failures

    def check(self, ok, failure):
        """Count one check, and keep its failure when it does not hold."""
        self.checked += 1
        if not ok:
            self.failures.append(failure)


def freeness_check(algebra, families, max_len) -> SweepReport:
    """Test that alternating centered words across families have zero
    expectation, for every word of length 2..max_len with letters drawn
    from the given family generator lists. A failure is the word's family
    path with its expectation."""
    # words of each length ending in each family; stop once past the bound
    sizes = [len(fam) for fam in families]
    ending, words = sizes, 0
    for _ in range(2, max_len + 1):
        total = sum(ending)
        ending = [size * (total - n) for size, n in zip(sizes, ending)]
        words += sum(ending)
        if words > FREENESS_WORD_BOUND:
            raise ValueError("a freeness sweep to length %d has more than "
                             "%d words" % (max_len, FREENESS_WORD_BOUND))
        if not words:
            break  # at most one family has letters: no word alternates
    centered = [[algebra.split(x)[1] for x in fam] for fam in families]
    letters = [(f, x) for f, fam in enumerate(centered) for x in fam][::-1]
    report = SweepReport("freeness", "max_len=%d" % max_len)
    # depth first; the letters are reversed so that they pop in order. An
    # entry is (family path, prefix, family, letter), multiplied when popped
    stack = [((), None, f, x) for f, x in letters]
    while stack:
        path, prefix, f, x = stack.pop()
        path += (f,)
        value = x if prefix is None else algebra.mul(prefix, x)
        if len(path) >= 2:
            got = algebra.expect(value)
            report.check(got.is_zero(), (path, got))
        if len(path) < max_len:
            stack += [(path, value, g, y) for g, y in letters if g != f]
    return report


@dataclass
class HaarReport:
    unitary_ok: bool
    failed_exponents: list = field(default_factory=list)

    @property
    def passed(self):
        return self.unitary_ok and not self.failed_exponents


def haar_check(algebra, u, max_k, unit=None) -> HaarReport:
    """Unitarity against the given unit, then vanishing of all moments
    u^k for 0 < |k| <= max_k.
    """
    unit = algebra.one() if unit is None else unit
    u_star = algebra.adjoint(u)
    unitary_ok = algebra.mul(u, u_star) == unit and \
        algebra.mul(u_star, u) == unit
    report = HaarReport(unitary_ok=unitary_ok)
    for base, sign in ((u, 1), (u_star, -1)):
        power = base
        for k in range(1, max_k + 1):
            if not algebra.expect(power).is_zero():
                report.failed_exponents.append(sign * k)
            if k < max_k:
                power = algebra.mul(power, base)
    report.failed_exponents.sort()
    return report

