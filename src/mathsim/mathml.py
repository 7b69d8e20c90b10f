"""Strict Content MathML parsing into immutable expression trees.

The supported vocabulary is deliberately small: ``math`` and ``semantics``
wrappers, ``apply``, ``bind``/``bvar``, ``csymbol``, ``ci`` and ``cn``.
Binding constructs are normalised into ordinary application nodes whose head
is the binder symbol and whose leading arguments are the bound variables.
Anything outside this vocabulary (``share``, ``cerror``, ``cs``, ...) is
rejected loudly rather than silently skipped.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Union


class MathMLParseError(ValueError):
    """Raised when input is not a well-formed supported expression."""


class UnsupportedConstructError(MathMLParseError):
    """Raised for well-formed XML that uses an element outside the vocabulary."""


@dataclass(frozen=True)
class Constant:
    """A ``cn`` leaf; equality used by the metric is lexical on ``value``."""

    value: str
    num_type: str | None = None


@dataclass(frozen=True)
class Variable:
    """A ``ci`` leaf."""

    name: str


@dataclass(frozen=True)
class FunctionSymbol:
    """A ``csymbol`` leaf tagged with its content dictionary."""

    name: str
    cd: str


@dataclass(frozen=True)
class Apply:
    """Function application: a head plus an ordered argument tuple."""

    head: "ExprTree"
    args: tuple["ExprTree", ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.head, (FunctionSymbol, Apply)):
            raise MathMLParseError(
                f"apply head must be a function symbol or nested apply, "
                f"got {type(self.head).__name__}"
            )


ExprTree = Union[Constant, Variable, FunctionSymbol, Apply]

LEAF_TYPES = (Constant, Variable, FunctionSymbol)


class FormulaClass(Enum):
    EQUATION = "equation"
    INEQUALITY = "inequality"
    NON_FORMULA = "non_formula"


# (cd, name) pairs; the relation1 dictionary is the conventional home of
# comparison symbols, but both sets are plain configuration.
DEFAULT_EQUALITY_SYMBOLS = frozenset({("relation1", "eq")})
DEFAULT_INEQUALITY_SYMBOLS = frozenset(
    {("relation1", n) for n in ("neq", "lt", "gt", "leq", "geq")}
)

# Deepest nesting parse_expression accepts: the root is at depth 0 and the
# head and arguments of an application one level below it.  The recursive
# walks over trees (the parser, the per-pair metric) stay well
# inside Python's default recursion limit at this depth.
MAX_DEPTH = 128

_WRAPPER_TAGS = {"math", "semantics"}
_ANNOTATION_TAGS = {"annotation", "annotation-xml"}


def _local(tag: object) -> str:
    # Strips any XML namespace, e.g. "{http://...}apply" -> "apply".
    if not isinstance(tag, str):
        raise MathMLParseError(f"unexpected non-element node: {tag!r}")
    return tag.rsplit("}", 1)[-1]


def _byte_offset(text: str, line: int, column: int) -> int:
    lines = text.split("\n")
    prefix = "\n".join(lines[: line - 1])
    if line > 1:
        prefix += "\n"
    prefix += lines[line - 1][:column] if line <= len(lines) else ""
    return len(prefix.encode("utf-8"))


def _require_blank(text: str | None, context: str) -> None:
    if text is not None and text.strip():
        raise MathMLParseError(f"unexpected character data {text.strip()!r} in <{context}>")


def _content_children(elem: ET.Element, context: str) -> list[ET.Element]:
    _require_blank(elem.text, context)
    children = []
    for child in elem:
        _require_blank(child.tail, context)
        children.append(child)
    return children


def parse_expression(xml_text: str, intern: dict | None = None) -> ExprTree:
    """Parse one Strict Content MathML expression into an :data:`ExprTree`.

    ``semantics`` wrappers are stripped to their first content child and a
    ``math`` wrapper may enclose the expression.  Raises
    :class:`MathMLParseError` for malformed XML (with the byte offset of the
    failure), a lone surrogate or nesting deeper than :data:`MAX_DEPTH`, and
    :class:`UnsupportedConstructError` for out-of-vocabulary elements.

    The tree is hash-consed: structurally equal subtrees are one object.
    ``intern`` is the table that does it; pass one dict to several calls to
    share equal subtrees across all the expressions they parse.  It holds
    every node it has made, so drop it when the load is done.
    """
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        line, column = exc.position
        offset = _byte_offset(xml_text, line, column)
        raise MathMLParseError(
            f"malformed XML at byte offset {offset} "
            f"(line {line}, column {column}): {exc.msg}"
        ) from exc
    except UnicodeEncodeError as exc:
        # The parser encodes a str as UTF-8, which a lone surrogate cannot be.
        raise MathMLParseError(
            f"text is not valid Unicode: {exc.reason} at index {exc.start}"
        ) from exc
    return _build(_unwrap(root), {} if intern is None else intern, 0)


def _unwrap(elem: ET.Element) -> ET.Element:
    while _local(elem.tag) in _WRAPPER_TAGS:
        tag = _local(elem.tag)
        content = [c for c in elem if _local(c.tag) not in _ANNOTATION_TAGS]
        if len(content) != 1:
            raise MathMLParseError(
                f"<{tag}> must wrap exactly one content expression, found {len(content)}"
            )
        elem = content[0]
    return elem


def _leaf(table: dict, cls: type, *fields: str | None) -> ExprTree:
    key = (cls, *fields)
    node = table.get(key)
    if node is None:
        node = table[key] = cls(*fields)
    return node


def _apply(table: dict, head: ExprTree, args: tuple[ExprTree, ...]) -> Apply:
    # The children are already interned, so their identity is their structure
    # (Filliatre & Conchon, "Type-safe modular hash-consing", 2006).
    key = (Apply, id(head), *map(id, args))
    node = table.get(key)
    if node is None:
        node = table[key] = Apply(head, args)
    return node


def _build(elem: ET.Element, table: dict, depth: int) -> ExprTree:
    if depth > MAX_DEPTH:
        raise MathMLParseError(f"expression nested deeper than {MAX_DEPTH} levels")
    tag = _local(elem.tag)
    if tag == "apply":
        children = _content_children(elem, "apply")
        if not children:
            raise MathMLParseError("<apply> requires a head element")
        head = _build(children[0], table, depth + 1)
        args = tuple(_build(c, table, depth + 1) for c in children[1:])
        return _apply(table, head, args)
    if tag == "bind":
        return _build_bind(elem, table, depth)
    if tag == "csymbol":
        cd = elem.attrib.get("cd")
        if not cd:
            raise MathMLParseError("<csymbol> requires a cd attribute")
        name = (elem.text or "").strip()
        if not name or len(elem) > 0:
            raise MathMLParseError("<csymbol> must contain a bare symbol name")
        return _leaf(table, FunctionSymbol, name, cd)
    if tag == "ci":
        name = (elem.text or "").strip()
        if not name or len(elem) > 0:
            raise MathMLParseError("<ci> must contain a bare variable name")
        return _leaf(table, Variable, name)
    if tag == "cn":
        if len(elem) > 0:
            raise UnsupportedConstructError(
                f"unsupported element '{_local(elem[0].tag)}' inside <cn>"
            )
        value = (elem.text or "").strip()
        if not value:
            raise MathMLParseError("<cn> must contain a literal value")
        return _leaf(table, Constant, value, elem.attrib.get("type"))
    raise UnsupportedConstructError(f"unsupported element '{tag}'")


def _build_bind(elem: ET.Element, table: dict, depth: int) -> Apply:
    # Normalised as Apply(binder, bound-variables..., body).
    children = _content_children(elem, "bind")
    if len(children) < 3:
        raise MathMLParseError("<bind> requires a binder, at least one <bvar> and a body")
    binder = _build(children[0], table, depth + 1)
    if not isinstance(binder, (FunctionSymbol, Apply)):
        raise MathMLParseError("<bind> binder must be a function symbol")
    bvars: list[ExprTree] = []
    rest = children[1:]
    while rest and _local(rest[0].tag) == "bvar":
        bvar = rest.pop(0)
        inner = _content_children(bvar, "bvar")
        if len(inner) != 1 or _local(inner[0].tag) != "ci":
            raise MathMLParseError("<bvar> must contain exactly one <ci>")
        bvars.append(_build(inner[0], table, depth + 1))
    if not bvars:
        raise MathMLParseError("<bind> requires at least one <bvar>")
    if len(rest) != 1:
        raise MathMLParseError("<bind> requires exactly one body expression")
    return _apply(table, binder, tuple(bvars) + (_build(rest[0], table, depth + 1),))


def height(tree: ExprTree) -> int:
    """0 for leaves, 1 + the tallest child (head or argument) for applications."""
    return max(depth for depth, _ in iter_subtrees(tree))


def iter_subtrees(tree: ExprTree) -> Iterator[tuple[int, ExprTree]]:
    """Yield ``(depth, node)`` for every node in preorder; the root has depth 0.

    The head and the arguments of an application all sit one level below it.
    """
    stack: list[tuple[int, ExprTree]] = [(0, tree)]
    while stack:
        depth, node = stack.pop()
        yield depth, node
        if isinstance(node, Apply):
            stack.extend((depth + 1, child) for child in reversed((node.head,) + node.args))


def node_count(tree: ExprTree) -> int:
    return sum(1 for _ in iter_subtrees(tree))


def classify(
    tree: ExprTree,
    equality_symbols: frozenset[tuple[str, str]] = DEFAULT_EQUALITY_SYMBOLS,
    inequality_symbols: frozenset[tuple[str, str]] = DEFAULT_INEQUALITY_SYMBOLS,
) -> FormulaClass:
    """Classify by the root head symbol: equation, inequality or plain expression."""
    if isinstance(tree, Apply) and isinstance(tree.head, FunctionSymbol):
        key = (tree.head.cd, tree.head.name)
        if key in equality_symbols:
            return FormulaClass.EQUATION
        if key in inequality_symbols:
            return FormulaClass.INEQUALITY
    return FormulaClass.NON_FORMULA


def _escape(text: str) -> str:
    # As xml.sax.saxutils.escape, which would import urllib.request.
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _quoteattr(text: str) -> str:
    """As ``xml.sax.saxutils.quoteattr``: in single quotes if only those need no entity."""
    text = _escape(text).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in text:
        return f'"{text}"'
    if "'" not in text:
        return f"'{text}'"
    return '"%s"' % text.replace('"', "&quot;")


def serialize_expression(tree: ExprTree) -> str:
    """Emit canonical markup; ``parse_expression`` round-trips it exactly."""
    if isinstance(tree, Constant):
        attr = f" type={_quoteattr(tree.num_type)}" if tree.num_type is not None else ""
        return f"<cn{attr}>{_escape(tree.value)}</cn>"
    if isinstance(tree, Variable):
        return f"<ci>{_escape(tree.name)}</ci>"
    if isinstance(tree, FunctionSymbol):
        return f"<csymbol cd={_quoteattr(tree.cd)}>{_escape(tree.name)}</csymbol>"
    parts = [serialize_expression(tree.head)]
    parts.extend(serialize_expression(a) for a in tree.args)
    return "<apply>" + "".join(parts) + "</apply>"
