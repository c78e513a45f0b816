"""Parser and evaluator for closed-form g/f expressions.

Grammar (whitespace insignificant, no implicit multiplication):

    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := '-' factor | atom ('^' exponent)?
    atom     := rational | 'x' | 'z' | '(' expr ')'
              | ('exp'|'log'|'ln') '(' expr ')'
    exponent := sint | '(' sint ')'
    rational := uint ('/' uint)?
    sint     := '-'? uint

The rational alternative is matched greedily, so ``3/4`` is a literal while
``3/x`` is a division.  A unary minus applies to the whole power, so
``-z^2`` is -(z^2), which is how the canonical ``str`` of a Scalar writes
it.  ``ln`` is an alias for ``log``.  Exponents are integer literals only
(parenthesised negative exponents are accepted since ``exp(x)^(-1)`` is the
natural spelling).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .scalars import Scalar, Z
from .series import Series

Span = tuple[int, int]

#: The highest z-degree of a Scalar power, and of a JSON cell: far above the
#: z^528 erarray writes at order 64, so a hostile exponent fails at once.
MAX_DEGREE = 1 << 16


class ParseError(ValueError):
    """Syntax error with the byte offset and the expected token."""

    def __init__(self, offset: int, expected: str, found: str):
        self.offset = offset
        self.expected = expected
        self.found = found
        super().__init__(
            f"syntax error at offset {offset}: expected {expected}, found {found}"
        )


class EvalError(ValueError):
    """Evaluation error carrying the source span of the offending node."""

    def __init__(self, message: str, span: Span):
        self.span = span
        super().__init__(f"{message} (at offset {span[0]}..{span[1]})")


# AST nodes.  Slotted and not frozen, so building one is an ``__init__``
# of plain assignments; ``==`` and ``hash`` ignore ``span``, so the trees of
# two texts that differ only in spacing compare equal.
@dataclass(slots=True, unsafe_hash=True)
class Num:
    value: Fraction
    span: Span = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class VarX:
    span: Span = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class VarZ:
    span: Span = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class Neg:
    child: object
    span: Span = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class BinOp:
    op: str  # one of + - * /
    left: object
    right: object
    span: Span = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class Pow:
    base: object
    exponent: int
    span: Span = field(compare=False)


@dataclass(slots=True, unsafe_hash=True)
class Call:
    func: str  # exp or log
    arg: object
    span: Span = field(compare=False)


_WORDS = ("x", "z", "exp", "log", "ln")


def _scan(text: str) -> list[tuple[str, str, int]]:
    """The tokens (kind, value, offset) of ``text``, then one eof token."""
    tokens = []
    i, size = 0, len(text)
    while i < size:
        ch = text[i]
        j = i + 1
        if ch in "+-*/^()":
            tokens.append((ch, ch, i))
        elif ch.isdigit():
            while j < size and text[j].isdigit():
                j += 1
            tokens.append(("uint", text[i:j], i))
        elif ch.isalpha():
            while j < size and text[j].isalnum():
                j += 1
            word = text[i:j]
            if word not in _WORDS:
                raise ParseError(i, "'x', 'z', 'exp', 'log' or a number", repr(word))
            tokens.append((word, word, i))
        elif not ch.isspace():
            raise ParseError(i, "a token", repr(ch))
        i = j
    tokens.append(("eof", "", size))
    return tokens


class _Parser:
    """Recursive descent over the token list, read by index: the scan ends
    with one eof token, which no rule consumes."""

    def __init__(self, text: str):
        self.tokens = _scan(text)
        self.pos = 0

    def fail(self, expected: str):
        kind, value, offset = self.tokens[self.pos]
        raise ParseError(offset, expected, "end of input" if kind == "eof" else repr(value))

    def expect(self, kind: str):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            self.fail(f"'{kind}'")
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.tokens[self.pos][0] != "eof":
            self.fail("end of input")
        return node

    def expr(self):
        node = self.term()
        tokens = self.tokens
        while (op := tokens[self.pos][0]) in ("+", "-"):
            self.pos += 1
            right = self.term()
            node = BinOp(op, node, right, (node.span[0], right.span[1]))
        return node

    def term(self):
        node = self.factor()
        tokens = self.tokens
        while (op := tokens[self.pos][0]) in ("*", "/"):
            self.pos += 1
            right = self.factor()
            node = BinOp(op, node, right, (node.span[0], right.span[1]))
        return node

    def factor(self):
        tok = self.tokens[self.pos]
        if tok[0] == "-":
            self.pos += 1
            child = self.factor()
            return Neg(child, (tok[2], child.span[1]))
        node = self.atom()
        if self.tokens[self.pos][0] == "^":
            self.pos += 1
            exponent, end = self.exponent()
            node = Pow(node, exponent, (node.span[0], end))
        return node

    def exponent(self) -> tuple[int, int]:
        if self.tokens[self.pos][0] == "(":
            self.pos += 1
            value, _ = self._sint()
            return value, self.expect(")")[2] + 1
        return self._sint()

    def _sint(self) -> tuple[int, int]:
        negative = self.tokens[self.pos][0] == "-"
        if negative:
            self.pos += 1
        _, digits, offset = self.expect("uint")
        value = int(digits)
        return (-value if negative else value), offset + len(digits)

    def atom(self):
        tokens, pos = self.tokens, self.pos
        kind, value, offset = tokens[pos]
        self.pos = pos + 1
        if kind == "uint":
            # greedy rational literal: uint '/' uint
            if tokens[pos + 1][0] == "/" and tokens[pos + 2][0] == "uint":
                _, digits, start = tokens[pos + 2]
                self.pos = pos + 3
                if int(digits) == 0:
                    raise ParseError(start, "a nonzero denominator", repr(digits))
                return Num(Fraction(int(value), int(digits)), (offset, start + len(digits)))
            return Num(Fraction(int(value)), (offset, offset + len(value)))
        if kind == "x":
            return VarX((offset, offset + 1))
        if kind == "z":
            return VarZ((offset, offset + 1))
        if kind in ("exp", "log", "ln"):
            self.expect("(")
            arg = self.expr()
            closing = self.expect(")")
            return Call("log" if kind == "ln" else kind, arg, (offset, closing[2] + 1))
        if kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        self.pos = pos
        self.fail("a number, 'x', 'z', '(', 'exp', 'log' or '-'")


def parse(text: str):
    """Parse an expression into its AST; raises ParseError on bad syntax."""
    return _Parser(text).parse()


def render(node) -> str:
    """Render an AST back to concrete syntax; reparsing yields an equal AST."""
    if isinstance(node, Num):
        return str(node.value)
    if isinstance(node, VarX):
        return "x"
    if isinstance(node, VarZ):
        return "z"
    if isinstance(node, Neg):
        child = render(node.child)
        if isinstance(node.child, (BinOp, Pow)):
            child = f"({child})"
        return f"-{child}"
    if isinstance(node, Call):
        return f"{node.func}({render(node.arg)})"
    if isinstance(node, Pow):
        base = render(node.base)
        if isinstance(node.base, (BinOp, Num)) or (
            isinstance(node.base, Neg) and base.startswith("-")
        ):
            base = f"({base})"
        exponent = str(node.exponent)
        if node.exponent < 0:
            exponent = f"({exponent})"
        return f"{base}^{exponent}"
    if isinstance(node, BinOp):
        left = render(node.left)
        right = render(node.right)
        if node.op in "*/":
            if isinstance(node.left, BinOp) and node.left.op in "+-":
                left = f"({left})"
            if isinstance(node.right, BinOp) or isinstance(node.right, Neg):
                right = f"({right})"
            if node.op == "/" and isinstance(node.right, Num):
                right = f"({right})"
        else:
            if isinstance(node.right, BinOp) and node.right.op in "+-":
                right = f"({right})"
            if isinstance(node.right, Neg):
                right = f"({right})"
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an AST node: {type(node).__name__}")


def _eval(node, order: int | None):
    """The value of ``node``: a Scalar when no x occurs in it, else a Series
    at ``order``, or below it past a valuation-cancelling division.  Order
    None is the scalar context, where x, exp and log are errors.

    Each x-free subtree is folded once, into a Scalar; a Series times or
    over one is scaled, and only two Series operands are cut to their
    common order.
    """
    kind = type(node)
    if kind is Num:
        return Scalar(node.value)
    if kind is VarZ:
        return Z
    if kind is VarX:
        if order is None:
            raise EvalError("x is not allowed in a scalar context", node.span)
        return Series.x(order)
    if kind is Neg:
        return -_eval(node.child, order)
    if kind is BinOp:
        left = _eval(node.left, order)
        right = _eval(node.right, order)
        op = node.op
        if type(right) is Series:
            if type(left) is Scalar:
                # What the series' reflected methods do, without first
                # trying the Scalar's own.
                if op == "*":
                    return right.scale(left)
                left = Series.constant(left, right.order)
            elif left.order != right.order:
                common = min(left.order, right.order)
                left, right = left.truncate(common), right.truncate(common)
        try:
            if op == "+":
                return left + right
            if op == "-":
                return left - right
            if op == "*":
                return left * right
            return left / right
        except (ValueError, ZeroDivisionError) as exc:
            raise EvalError(str(exc), node.span) from None
    if kind is Pow:
        base = _eval(node.base, order)
        if type(base) is Scalar:
            deg = max(base.num.degree, base.den.degree) * abs(node.exponent)
            if deg > MAX_DEGREE:
                raise EvalError(f"z-degree {deg} exceeds the bound {MAX_DEGREE}", node.span)
        try:
            return base**node.exponent
        except (ValueError, ZeroDivisionError) as exc:
            raise EvalError(str(exc), node.span) from None
    if kind is Call:
        if order is None:
            raise EvalError(f"{node.func} is not allowed in a scalar context", node.span)
        arg = _eval(node.arg, order)
        if type(arg) is Scalar:
            arg = Series.constant(arg, order)
        try:
            return arg.exp() if node.func == "exp" else arg.log()
        except ValueError as exc:
            raise EvalError(str(exc), node.span) from None
    raise TypeError(f"not an AST node: {kind.__name__}")


def eval_series(node, order: int) -> Series:
    """Evaluate an AST to an exact Series of exactly the requested order.

    Valuation-cancelling divisions shorten intermediate results; when that
    happens the whole tree is re-evaluated at a raised working order until
    the requested order is met (the lost valuation is intrinsic to the
    expression, so one raise normally suffices).
    """
    if order < 1:
        raise ValueError("eval_series needs order >= 1")
    working = order
    for _ in range(8):
        result = _eval(node, working)
        if type(result) is Scalar:
            return Series.constant(result, order)
        if result.order >= order:
            return result.truncate(order)
        working += order - result.order
    raise ArithmeticError("expression keeps losing truncation order")


def eval_scalar(node) -> Scalar:
    """Evaluate a z-only AST to a Scalar (x and exp/log are rejected)."""
    return _eval(node, None)


def parse_series(text: str, order: int) -> Series:
    return eval_series(parse(text), order)


def parse_scalar(text: str) -> Scalar:
    return eval_scalar(parse(text))
