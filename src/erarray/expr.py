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


@dataclass(frozen=True)
class Num:
    value: Fraction
    span: Span = field(compare=False)


@dataclass(frozen=True)
class VarX:
    span: Span = field(compare=False)


@dataclass(frozen=True)
class VarZ:
    span: Span = field(compare=False)


@dataclass(frozen=True)
class Neg:
    child: object
    span: Span = field(compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: object
    right: object
    span: Span = field(compare=False)


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int
    span: Span = field(compare=False)


@dataclass(frozen=True)
class Call:
    func: str  # exp or log
    arg: object
    span: Span = field(compare=False)


_TOKEN_NAMES = {
    "+": "'+'", "-": "'-'", "*": "'*'", "/": "'/'", "^": "'^'",
    "(": "'('", ")": "')'",
}


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []  # (kind, value, offset)
        self._scan()

    def _scan(self):
        text = self.text
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in "+-*/^()":
                self.tokens.append((ch, ch, i))
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.tokens.append(("uint", text[i:j], i))
                i = j
                continue
            if ch.isalpha():
                j = i
                while j < len(text) and text[j].isalnum():
                    j += 1
                word = text[i:j]
                if word in ("x", "z", "exp", "log", "ln"):
                    self.tokens.append((word, word, i))
                    i = j
                    continue
                raise ParseError(i, "'x', 'z', 'exp', 'log' or a number", repr(word))
            raise ParseError(i, "a token", repr(ch))
        self.tokens.append(("eof", "", len(text)))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _Tokenizer(text).tokens
        self.pos = 0

    def peek(self, ahead: int = 0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(
                tok[2],
                _TOKEN_NAMES.get(kind, f"'{kind}'"),
                "end of input" if tok[0] == "eof" else repr(tok[1]),
            )
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError(tok[2], "end of input", repr(tok[1]))
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            right = self.term()
            node = BinOp(op, node, right, (node.span[0], right.span[1]))
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            right = self.factor()
            node = BinOp(op, node, right, (node.span[0], right.span[1]))
        return node

    def factor(self):
        tok = self.peek()
        if tok[0] == "-":
            self.advance()
            child = self.factor()
            return Neg(child, (tok[2], child.span[1]))
        node = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            exponent, end = self.exponent()
            node = Pow(node, exponent, (node.span[0], end))
        return node

    def exponent(self) -> tuple[int, int]:
        if self.peek()[0] == "(":
            self.advance()
            value, _ = self._sint()
            closing = self.expect(")")
            return value, closing[2] + 1
        return self._sint()

    def _sint(self) -> tuple[int, int]:
        negative = False
        if self.peek()[0] == "-":
            self.advance()
            negative = True
        tok = self.expect("uint")
        value = int(tok[1])
        return (-value if negative else value), tok[2] + len(tok[1])

    def atom(self):
        tok = self.peek()
        kind, value, offset = tok
        if kind == "uint":
            self.advance()
            end = offset + len(value)
            numerator = int(value)
            # greedy rational literal: uint '/' uint
            if self.peek()[0] == "/" and self.peek(1)[0] == "uint":
                self.advance()
                dtok = self.advance()
                if int(dtok[1]) == 0:
                    raise ParseError(dtok[2], "a nonzero denominator", repr(dtok[1]))
                return Num(
                    Fraction(numerator, int(dtok[1])), (offset, dtok[2] + len(dtok[1]))
                )
            return Num(Fraction(numerator), (offset, end))
        if kind == "x":
            self.advance()
            return VarX((offset, offset + 1))
        if kind == "z":
            self.advance()
            return VarZ((offset, offset + 1))
        if kind in ("exp", "log", "ln"):
            self.advance()
            self.expect("(")
            arg = self.expr()
            closing = self.expect(")")
            func = "log" if kind == "ln" else kind
            return Call(func, arg, (offset, closing[2] + 1))
        if kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        raise ParseError(
            offset,
            "a number, 'x', 'z', '(', 'exp', 'log' or '-'",
            "end of input" if kind == "eof" else repr(value),
        )


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


def _eval_node(node, order: int) -> Series:
    if isinstance(node, Num):
        return Series.constant(node.value, order)
    if isinstance(node, VarX):
        return Series.x(order)
    if isinstance(node, VarZ):
        return Series.constant(Z, order)
    if isinstance(node, Neg):
        return -_eval_node(node.child, order)
    if isinstance(node, BinOp):
        left = _eval_node(node.left, order)
        right = _eval_node(node.right, order)
        common = min(left.order, right.order)
        left, right = left.truncate(common), right.truncate(common)
        try:
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            return left / right
        except (ValueError, ZeroDivisionError) as exc:
            raise EvalError(str(exc), node.span) from None
    if isinstance(node, Pow):
        base = _eval_node(node.base, order)
        try:
            return base**node.exponent
        except (ValueError, ZeroDivisionError) as exc:
            raise EvalError(str(exc), node.span) from None
    if isinstance(node, Call):
        arg = _eval_node(node.arg, order)
        try:
            return arg.exp() if node.func == "exp" else arg.log()
        except ValueError as exc:
            raise EvalError(str(exc), node.span) from None
    raise TypeError(f"not an AST node: {type(node).__name__}")


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
        result = _eval_node(node, working)
        if result.order >= order:
            return result.truncate(order)
        working += order - result.order
    raise ArithmeticError("expression keeps losing truncation order")


def eval_scalar(node) -> Scalar:
    """Evaluate a z-only AST to a Scalar (x and exp/log are rejected)."""
    if isinstance(node, Num):
        return Scalar(node.value)
    if isinstance(node, VarZ):
        return Z
    if isinstance(node, VarX):
        raise EvalError("x is not allowed in a scalar context", node.span)
    if isinstance(node, Neg):
        return -eval_scalar(node.child)
    if isinstance(node, BinOp):
        left = eval_scalar(node.left)
        right = eval_scalar(node.right)
        try:
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            return left / right
        except ZeroDivisionError as exc:
            raise EvalError(str(exc), node.span) from None
    if isinstance(node, Pow):
        base = eval_scalar(node.base)
        try:
            return base**node.exponent
        except (ValueError, ZeroDivisionError) as exc:
            raise EvalError(str(exc), node.span) from None
    if isinstance(node, Call):
        raise EvalError(f"{node.func} is not allowed in a scalar context", node.span)
    raise TypeError(f"not an AST node: {type(node).__name__}")


def parse_series(text: str, order: int) -> Series:
    return eval_series(parse(text), order)


def parse_scalar(text: str) -> Scalar:
    return eval_scalar(parse(text))
