"""Expression language for words, cylinders, and corner brackets.

Juxtaposition multiplies, `~` takes adjoints, `^` raises to integer powers
(negative powers go through the adjoint), parentheses group. Atoms:

    a b' a           group letters, apostrophe inverts
    e                the identity word
    O(a b)           a cylinder set
    e[x,y]           a core unit, placed in every matrix slot of its face
    A[e]{1,2}        slot unit on the plain face
    B[u^3]{2,1}      shifted slot bracket; cores: e, u, u^n, e[x,y], d[x]
"""

import re
from dataclasses import dataclass

from .engine import CrossedFace, CylFn, MAmbient
from .words import ReducedWord


class DslError(ValueError):
    pass


_NESTING_BOUND = 100  # ( and ~ levels: each costs a few stack frames
# letters an expression may unfold to (see letter_count): at the bound,
# `moment "a^5000"` takes about 0.6 s and `oracle "a^5000"` about 1 s
LETTER_BOUND = 5000


# -- syntax trees ---------------------------------------------------------------

@dataclass(frozen=True)
class WordAtom:
    word: ReducedWord


@dataclass(frozen=True)
class CylinderAtom:
    word: ReducedWord  # the prefix of the cylinder


@dataclass(frozen=True)
class UnitAtom:
    x: str
    y: str


@dataclass(frozen=True)
class BracketAtom:
    tag: str
    core: tuple
    i: int
    j: int


@dataclass(frozen=True)
class Product:
    factors: tuple


@dataclass(frozen=True)
class Adjoint:
    inner: object


@dataclass(frozen=True)
class Power:
    inner: object
    n: int


# -- tokenizer -------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<name>[a-z][a-z0-9]*'?)|(?P<upper>[A-Z])"
    r"|(?P<int>[0-9]+)|(?P<sym>[()\[\]{}^~,-])")


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    offset: int  # of its first character in the text


def _where(text, offset):
    """The line and column of a character offset, both counted from 1."""
    line_start = text.rfind("\n", 0, offset) + 1
    return "line %d, column %d" % (text.count("\n", 0, offset) + 1,
                                   offset - line_start + 1)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise DslError("%s: unexpected character %r"
                           % (_where(text, pos), text[pos]))
        if match.lastgroup != "ws":
            tokens.append(Token(match.lastgroup, match.group(), pos))
        pos = match.end()
    return tokens


# -- parser ----------------------------------------------------------------------

class _Parser:
    def __init__(self, text, config):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.config = config
        self.depth = 0

    def fail(self, message, token=None):
        if token is None:
            token = self.tokens[self.pos] if self.pos < len(self.tokens) \
                else None
        where = _where(self.text, token.offset) if token else "end of input"
        raise DslError("%s: %s" % (where, message))

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        token = self.peek()
        if token is None:
            self.fail("unexpected end of input")
        self.pos += 1
        return token

    def expect(self, value):
        token = self.take()
        if token.value != value:
            self.fail("expected %r" % value, token)
        return token

    def parse(self):
        expr = self.expression()
        if self.peek() is not None:
            self.fail("trailing input")
        if letter_count(expr) > LETTER_BOUND:
            raise DslError("expression unfolds to more than %d letters"
                           % LETTER_BOUND)
        return expr

    def expression(self):
        factors = [self.factor()]
        while self._starts_factor():
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        flat = []
        for f in factors:
            flat.extend(f.factors if isinstance(f, Product) else (f,))
        return Product(tuple(flat))

    def _starts_factor(self):
        token = self.peek()
        if token is None:
            return False
        return token.kind in ("name", "upper") or token.value in ("(", "~")

    def factor(self):
        token = self.peek()
        if token is not None and token.value == "~":
            self.take()
            return Adjoint(self.nested(token, self.factor))
        node = self.primary()
        token = self.peek()
        if token is not None and token.value == "^":
            self.take()
            node = Power(node, self.signed_int())
        return node

    def nested(self, token, parse):
        """parse() one level inside the ( or ~ at token."""
        if self.depth == _NESTING_BOUND:
            self.fail("%r nested deeper than %d levels"
                      % (token.value, _NESTING_BOUND), token)
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def signed_int(self):
        sign = 1
        token = self.take()
        if token.value == "-":
            sign = -1
            token = self.take()
        if token.kind != "int":
            self.fail("expected an integer", token)
        return sign * int(token.value)

    def primary(self):
        token = self.take()
        if token.value == "(":
            expr = self.nested(token, self.expression)
            self.expect(")")
            return expr
        if token.kind == "upper":
            if token.value == "O":
                self.expect("(")
                word = self.group_word()
                self.expect(")")
                return CylinderAtom(word)
            if token.value in ("A", "B"):
                return self.bracket(token.value)
            self.fail("unknown name %r" % token.value, token)
        if token.kind == "name":
            if token.value == "e" and self._next_is("["):
                return UnitAtom(*self.point_pair())
            return WordAtom(self.group_letter(token))
        self.fail("expected an expression", token)

    def _next_is(self, value):
        token = self.peek()
        return token is not None and token.value == value

    def group_letter(self, token):
        alphabet = self.config.alphabet
        if token.value == "e":
            return ReducedWord.identity(alphabet)
        try:
            letter = alphabet.letter(token.value)
        except ValueError:
            self.fail("unresolved identifier %r" % token.value, token)
        return ReducedWord.from_letters(alphabet, (letter,))

    def group_word(self):
        word = None
        while True:
            token = self.peek()
            if token is None or token.kind != "name":
                break
            self.take()
            piece = self.group_letter(token)
            if word and piece and word.letters[-1] == -piece.letters[0]:
                self.fail("cylinder prefix is not reduced: %s cancels the "
                          "letter before it" % token.value, token)
            word = piece if word is None else word * piece
        if word is None:
            self.fail("expected a group word")
        return word

    def point(self):
        token = self.take()
        if token.kind != "name" and token.kind != "int":
            self.fail("expected a base point", token)
        if token.value not in self.config.base.points:
            self.fail("unresolved identifier %r" % token.value, token)
        return token.value

    def point_pair(self):
        """[x,y] after an e: the two base points."""
        self.expect("[")
        x = self.point()
        self.expect(",")
        y = self.point()
        self.expect("]")
        return x, y

    def bracket(self, tag):
        self.expect("[")
        token = self.take()
        if token.kind != "name":
            self.fail("expected a bracket core", token)
        if token.value == "u":
            n = 1
            if self._next_is("^"):
                self.take()
                n = self.signed_int()
            core = ("shift", n)
        elif token.value == "e" and self._next_is("["):
            core = ("unit",) + self.point_pair()
        elif token.value == "e":
            core = ("one",)
        elif token.value == "d":
            self.expect("[")
            x = self.point()
            self.expect("]")
            core = ("diag", x)
        else:
            self.fail("unknown bracket core %r" % token.value, token)
        self.expect("]")
        self.expect("{")
        i = self.slot_index()
        self.expect(",")
        j = self.slot_index()
        self.expect("}")
        return BracketAtom(tag, core, i, j)

    def slot_index(self):
        token = self.peek()
        index = self.signed_int()
        if index < 1:
            self.fail("slot indices start at 1", token)
        if index > self.config.k:
            self.fail("slot index %d is above k = %d" % (index, self.config.k),
                      token)
        return index


def parse(text, config):
    return _Parser(text, config).parse()


def letter_count(expr):
    """The letters expr unfolds to when evaluated: an atom counts the letters
    of its word, at least one, and x^n counts x |n| times, once for n = 0,
    whose base is still evaluated."""
    if isinstance(expr, (WordAtom, CylinderAtom)):
        return len(expr.word.letters) or 1
    if isinstance(expr, Product):
        return sum(map(letter_count, expr.factors))
    if isinstance(expr, Power):
        return (abs(expr.n) or 1) * letter_count(expr.inner)
    if isinstance(expr, Adjoint):
        return letter_count(expr.inner)
    return 1


# -- rendering ---------------------------------------------------------------------

def render(expr):
    if isinstance(expr, Product):
        return " ".join(_wrap(f, parens=(Product,)) for f in expr.factors)
    if isinstance(expr, Adjoint):
        return "~" + _wrap(expr.inner, parens=(Product,))
    if isinstance(expr, Power):
        return _wrap(expr.inner, parens=(Product, Adjoint, Power)) + "^%d" % expr.n
    if isinstance(expr, WordAtom):
        return expr.word.render()
    if isinstance(expr, CylinderAtom):
        return "O(%s)" % expr.word.render()
    if isinstance(expr, UnitAtom):
        return "e[%s,%s]" % (expr.x, expr.y)
    if isinstance(expr, BracketAtom):
        return "%s[%s]{%d,%d}" % (expr.tag, _render_core(expr.core),
                                  expr.i, expr.j)
    raise TypeError("not an expression: %r" % (expr,))


def _wrap(expr, parens):
    text = render(expr)
    return "(" + text + ")" if isinstance(expr, parens) else text


def _render_core(core):
    kind = core[0]
    if kind == "one":
        return "e"
    if kind == "shift":
        return "u" if core[1] == 1 else "u^%d" % core[1]
    if kind == "unit":
        return "e[%s,%s]" % core[1:]
    if kind == "diag":
        return "d[%s]" % core[1]
    raise TypeError("unknown core %r" % (core,))


def machine_text(expr):
    # machine records separate fields by spaces, so values may not have any
    return render(expr).replace(" ", ".")


# -- domains and evaluation -----------------------------------------------------

def domain(expr):
    """Which model the expression lives in: 'boundary' or 'corner'."""
    kinds = set()

    def walk(node):
        if isinstance(node, (WordAtom, CylinderAtom)):
            kinds.add("boundary")
        elif isinstance(node, (UnitAtom, BracketAtom)):
            kinds.add("corner")
        elif isinstance(node, Product):
            for f in node.factors:
                walk(f)
        elif isinstance(node, (Adjoint, Power)):
            walk(node.inner)

    walk(expr)
    if len(kinds) != 1:
        raise DslError("expression mixes boundary and corner atoms"
                       if kinds else "empty expression")
    return kinds.pop()


def evaluate(expr, context):
    if isinstance(expr, Product):
        out = None
        for factor in expr.factors:
            value = evaluate(factor, context)
            out = value if out is None else context.mul(out, value)
        return out
    if isinstance(expr, Adjoint):
        return context.adjoint(evaluate(expr.inner, context))
    if isinstance(expr, Power):
        base = evaluate(expr.inner, context)
        if expr.n == 0:
            return context.one()
        if expr.n < 0:
            base = context.adjoint(base)
        out = base
        for _ in range(abs(expr.n) - 1):
            out = context.mul(out, base)
        return out
    return context.atom(expr)


class BoundaryContext(MAmbient):
    """Evaluates into the two-face boundary free product."""

    def atom(self, node):
        if isinstance(node, CylinderAtom):
            face = self.product.face(self.product.tags[0])
            return self.product.from_d(
                face.guard(CylFn.indicator(node.word)))
        if isinstance(node, WordAtom):
            word = node.word
            if word.is_identity():
                return self.product.one()
            block = word.alphabet.block_of(word.letters[0])
            tag = "A" if block == 1 else "B"
            return self.product.embed(
                tag, self.product.face(tag).unitary(word))
        raise DslError("corner atom in a boundary expression")


class CrossedContext(CrossedFace):
    """Evaluates into the one-face crossed algebra; the oracle route."""

    def __init__(self, alphabet, budget):
        super().__init__("M", alphabet, None, budget)

    def atom(self, node):
        if isinstance(node, CylinderAtom):
            return self.embed_d(CylFn.indicator(node.word))
        if isinstance(node, WordAtom):
            return self.unitary(node.word)
        raise DslError("corner atom in a boundary expression")


class CornerContext(MAmbient):
    """Evaluates into the amplified corner model."""

    def __init__(self, model):
        super().__init__(model.product)
        self.model = model

    def atom(self, node):
        model = self.model
        if isinstance(node, UnitAtom):
            pair = (node.x, node.y)
            for face in (model.face_a, model.face_b):
                if pair in face.core_relation.pairs:
                    return model.embed(face.ambient(face.core_unit(*pair)))
            raise DslError("e[%s,%s] is not in either face relation"
                           % pair)
        if isinstance(node, BracketAtom):
            face = model.amplified_face(node.tag)
            kind = node.core[0]
            if kind == "one":
                core = None
            elif kind == "shift":
                core = face.shift_power(node.core[1])
            elif kind == "unit":
                core = face.core_unit(*node.core[1:])
            else:
                core = face.core_unit(node.core[1], node.core[1])
            bracket = face.matrix_unit(node.i, node.j) if core is None \
                else face.bracket(core, node.i, node.j)
            return model.embed(bracket)
        raise DslError("boundary atom in a corner expression")


def word_value(expr, config):
    """Fold a pure group-word expression into a reduced word."""
    if isinstance(expr, WordAtom):
        return expr.word
    if isinstance(expr, Product):
        out = ReducedWord.identity(config.alphabet)
        for factor in expr.factors:
            out = out * word_value(factor, config)
        return out
    if isinstance(expr, Adjoint):
        return word_value(expr.inner, config).inverse()
    if isinstance(expr, Power):
        base = word_value(expr.inner, config)
        if expr.n < 0:
            base = base.inverse()
        out = ReducedWord.identity(config.alphabet)
        for _ in range(abs(expr.n)):
            out = out * base
        return out
    raise DslError("expected a group word")


def cylinder_value(expr):
    """The prefix word of a cylinder expression O(...)."""
    if isinstance(expr, CylinderAtom):
        return expr.word
    raise DslError("expected a cylinder O(...)")
