import dataclasses
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mathsim.mathml import (
    Apply,
    Constant,
    FormulaClass,
    MAX_DEPTH,
    FunctionSymbol,
    MathMLParseError,
    UnsupportedConstructError,
    Variable,
    classify,
    height,
    iter_subtrees,
    node_count,
    parse_expression,
    serialize_expression,
)

from helpers import tree_strategy

PLUS = FunctionSymbol("plus", "arith1")
EQ = FunctionSymbol("eq", "relation1")
TIMES = FunctionSymbol("times", "arith1")


class TestParsing:
    def test_apply_with_symbol_head(self):
        tree = parse_expression(
            '<apply><csymbol cd="arith1">plus</csymbol><ci>x</ci><cn>2</cn></apply>'
        )
        assert tree == Apply(PLUS, (Variable("x"), Constant("2")))

    def test_single_variable(self):
        assert parse_expression("<ci>x</ci>") == Variable("x")

    def test_nested_apply(self):
        xml = (
            '<apply><csymbol cd="relation1">eq</csymbol><ci>y</ci>'
            '<apply><csymbol cd="arith1">times</csymbol><cn>2</cn><ci>x</ci></apply></apply>'
        )
        tree = parse_expression(xml)
        assert tree == Apply(EQ, (Variable("y"), Apply(TIMES, (Constant("2"), Variable("x")))))

    def test_math_wrapper_and_namespace(self):
        xml = (
            '<math xmlns="http://www.w3.org/1998/Math/MathML">'
            "<ci>x</ci></math>"
        )
        assert parse_expression(xml) == Variable("x")

    def test_semantics_stripped_to_content_child(self):
        xml = (
            "<math><semantics>"
            '<apply><csymbol cd="arith1">plus</csymbol><ci>x</ci><ci>y</ci></apply>'
            '<annotation encoding="application/x-tex">x + y</annotation>'
            "</semantics></math>"
        )
        assert parse_expression(xml) == Apply(PLUS, (Variable("x"), Variable("y")))

    def test_cn_type_attribute_kept(self):
        assert parse_expression('<cn type="integer">2</cn>') == Constant("2", "integer")

    def test_bind_normalises_to_apply(self):
        xml = (
            "<bind>"
            '<csymbol cd="quant1">forall</csymbol>'
            "<bvar><ci>x</ci></bvar>"
            '<apply><csymbol cd="relation1">geq</csymbol><ci>x</ci><cn>0</cn></apply>'
            "</bind>"
        )
        tree = parse_expression(xml)
        assert isinstance(tree, Apply)
        assert tree.head == FunctionSymbol("forall", "quant1")
        assert tree.args[0] == Variable("x")
        assert isinstance(tree.args[1], Apply)

    def test_whitespace_between_elements_tolerated(self):
        xml = """
        <apply>
          <csymbol cd="arith1">plus</csymbol>
          <ci>x</ci>
          <cn>2</cn>
        </apply>
        """
        assert parse_expression(xml) == Apply(PLUS, (Variable("x"), Constant("2")))

    def test_wrapper_whitespace_and_annotation_text_tolerated(self):
        xml = ("<math>\n <semantics> <ci>x</ci>\n"
               ' <annotation encoding="TeX">x <b/> y</annotation>\t</semantics>\n</math>')
        assert parse_expression(xml) == Variable("x")


class TestParseErrors:
    def test_malformed_xml_reports_byte_offset(self):
        with pytest.raises(MathMLParseError, match="byte offset"):
            parse_expression("<apply><ci>x</ci>")

    def test_unsupported_element_named(self):
        with pytest.raises(UnsupportedConstructError, match="share"):
            parse_expression('<apply><csymbol cd="arith1">plus</csymbol><share/></apply>')

    def test_cs_rejected(self):
        with pytest.raises(UnsupportedConstructError, match="cs"):
            parse_expression("<cs>text</cs>")

    def test_sep_inside_cn_rejected(self):
        with pytest.raises(UnsupportedConstructError, match="sep"):
            parse_expression('<cn type="rational">1<sep/>2</cn>')

    def test_csymbol_requires_cd(self):
        with pytest.raises(MathMLParseError, match="cd attribute"):
            parse_expression("<apply><csymbol>plus</csymbol><ci>x</ci></apply>")

    def test_empty_apply(self):
        with pytest.raises(MathMLParseError, match="head"):
            parse_expression("<apply></apply>")

    def test_variable_head_rejected(self):
        with pytest.raises(MathMLParseError, match="head"):
            parse_expression("<apply><ci>f</ci><ci>x</ci></apply>")

    def test_stray_text_rejected(self):
        with pytest.raises(MathMLParseError, match="character data"):
            parse_expression('<apply>oops<csymbol cd="arith1">plus</csymbol></apply>')

    def test_bind_without_bvar(self):
        with pytest.raises(MathMLParseError, match="bvar"):
            parse_expression(
                '<bind><csymbol cd="fns1">lambda</csymbol><ci>x</ci><ci>y</ci></bind>'
            )

    def test_empty_ci(self):
        with pytest.raises(MathMLParseError, match="ci"):
            parse_expression("<ci>  </ci>")

    @pytest.mark.parametrize("xml,message", [
        ("<math></math>", "<math> must wrap exactly one content expression, found 0"),
        ("<math><ci>x</ci><ci>y</ci></math>", "found 2"),
        ('<semantics><annotation encoding="TeX">x</annotation></semantics>',
         "<semantics> must wrap exactly one content expression, found 0"),
        ('<csymbol cd="arith1"> </csymbol>', "bare symbol name"),
        ('<csymbol cd="arith1">plus<ci>x</ci></csymbol>', "bare symbol name"),
        ("<cn> </cn>", "literal value"),
        ('<bind><csymbol cd="quant1">forall</csymbol><bvar><ci>x</ci></bvar></bind>',
         "requires a binder, at least one <bvar> and a body"),
        ("<bind><ci>f</ci><bvar><ci>x</ci></bvar><ci>x</ci></bind>",
         "binder must be a function symbol"),
        ('<bind><csymbol cd="quant1">forall</csymbol><bvar><cn>1</cn></bvar><ci>x</ci></bind>',
         "<bvar> must contain exactly one <ci>"),
        ('<bind><csymbol cd="quant1">forall</csymbol><bvar><ci>x</ci><ci>y</ci></bvar>'
         "<ci>x</ci></bind>", "<bvar> must contain exactly one <ci>"),
        ('<bind><csymbol cd="quant1">forall</csymbol><bvar><ci>x</ci></bvar>'
         "<ci>x</ci><ci>y</ci></bind>", "exactly one body expression"),
        ("<math>junk<ci>x</ci></math>", "unexpected character data 'junk' in <math>"),
        ("<math><ci>x</ci>more</math>", "unexpected character data 'more' in <math>"),
        ("<semantics><ci>x</ci>tail<annotation>a</annotation></semantics>",
         "unexpected character data 'tail' in <semantics>"),
        ("<semantics><ci>x</ci><annotation>a</annotation>tail</semantics>",
         "unexpected character data 'tail' in <semantics>"),
        ("<math><semantics><ci>x</ci></semantics>tail</math>",
         "unexpected character data 'tail' in <math>"),
    ], ids=["math-empty", "math-two", "semantics-annotation-only", "csymbol-blank",
            "csymbol-child", "cn-blank", "bind-two-children", "bind-variable-binder",
            "bvar-cn", "bvar-two-ci", "bind-two-bodies", "math-text", "math-tail",
            "semantics-tail", "annotation-tail", "semantics-outer-tail"])
    def test_malformed_construct_rejected(self, xml, message):
        with pytest.raises(MathMLParseError, match=re.escape(message)):
            parse_expression(xml)

    def test_byte_offset_counts_utf8_bytes_past_line_one(self):
        # Expat reports the column in characters; the offset must be in bytes.
        xml = "<math>\n  <ci>日本語</ci>&bad;</math>"
        with pytest.raises(MathMLParseError, match=r"line 2, column 14") as info:
            parse_expression(xml)
        offset = int(re.search(r"byte offset (\d+)", str(info.value)).group(1))
        assert xml.encode("utf-8")[offset:].startswith(b"&bad;")

    def test_lone_surrogate_is_parse_error(self):
        # ElementTree encodes a str to UTF-8 first, which a lone surrogate cannot be.
        with pytest.raises(MathMLParseError, match="not valid Unicode: surrogates not allowed"):
            parse_expression("\ud800<ci>x</ci>")

    def test_nesting_depth_limited(self):
        def nested(depth):
            body = "<ci>x</ci>"
            for _ in range(depth):
                body = f'<apply><csymbol cd="arith1">minus</csymbol>{body}</apply>'
            return body

        assert height(parse_expression(nested(MAX_DEPTH))) == MAX_DEPTH
        with pytest.raises(MathMLParseError, match=f"nested deeper than {MAX_DEPTH} levels"):
            parse_expression(nested(MAX_DEPTH + 1))


class TestHeight:
    def test_leaf(self):
        assert height(Variable("x")) == 0

    def test_single_apply(self):
        assert height(Apply(PLUS, (Variable("x"), Constant("2")))) == 1

    def test_nested(self):
        tree = Apply(EQ, (Variable("y"), Apply(TIMES, (Constant("2"), Variable("x")))))
        assert height(tree) == 2

    def test_deep_chain_built_in_code(self):
        # Far past MAX_DEPTH and the recursion limit; only the parser caps depth.
        tree = Variable("x")
        for _ in range(2000):
            tree = Apply(FunctionSymbol("sin", "transc1"), (tree,))
        assert height(tree) == 2000

    @given(tree_strategy)
    def test_height_exceeds_children(self, tree):
        if isinstance(tree, Apply):
            for child in (tree.head,) + tree.args:
                assert height(tree) > height(child)
        else:
            assert height(tree) == 0


class TestClassify:
    def test_equation(self):
        assert classify(Apply(EQ, (Variable("y"), Variable("x")))) is FormulaClass.EQUATION

    def test_inequality(self):
        lt = FunctionSymbol("lt", "relation1")
        assert classify(Apply(lt, (Variable("x"), Constant("1")))) is FormulaClass.INEQUALITY

    def test_plain_expression(self):
        assert classify(Apply(PLUS, (Variable("x"), Constant("1")))) is FormulaClass.NON_FORMULA

    def test_leaf_is_non_formula(self):
        assert classify(Variable("x")) is FormulaClass.NON_FORMULA

    def test_custom_symbol_sets(self):
        approx = FunctionSymbol("approx", "relation1")
        tree = Apply(approx, (Variable("x"), Variable("y")))
        assert classify(tree) is FormulaClass.NON_FORMULA
        assert (
            classify(tree, equality_symbols=frozenset({("relation1", "approx")}))
            is FormulaClass.EQUATION
        )

    @given(tree_strategy)
    def test_depends_only_on_root_head(self, tree):
        wrapped = Apply(EQ, (tree,))
        assert classify(wrapped) is FormulaClass.EQUATION


class TestTreeBasics:
    def test_trees_immutable(self):
        tree = Apply(PLUS, (Variable("x"),))
        with pytest.raises(dataclasses.FrozenInstanceError):
            tree.head = EQ

    def test_iter_subtrees_depths(self):
        tree = Apply(EQ, (Variable("y"), Apply(TIMES, (Constant("2"), Variable("x")))))
        depths = sorted(d for d, _ in iter_subtrees(tree))
        assert depths == [0, 1, 1, 1, 2, 2, 2]
        assert node_count(tree) == 7

    @given(tree_strategy)
    def test_serialize_round_trip(self, tree):
        assert parse_expression(serialize_expression(tree)) == tree


# Text with every character that markup escapes or quoting depends on.
MARKUP_TEXT = st.text(st.one_of(st.sampled_from("&<>\"'\n\r\t;#x"), st.characters()))


@given(MARKUP_TEXT, MARKUP_TEXT)
def test_serialize_escapes_as_saxutils(text, attribute):
    # Imported here only: the package must not import it (see test_cli).
    from xml.sax.saxutils import escape, quoteattr

    assert serialize_expression(Constant(text, attribute)) == (
        f"<cn type={quoteattr(attribute)}>{escape(text)}</cn>"
    )
    assert serialize_expression(Variable(text)) == f"<ci>{escape(text)}</ci>"
    assert serialize_expression(FunctionSymbol(text, attribute)) == (
        f"<csymbol cd={quoteattr(attribute)}>{escape(text)}</csymbol>"
    )


def test_bundled_corpus_round_trips(bundled_corpus):
    for record in bundled_corpus:
        again = parse_expression(serialize_expression(record.tree))
        assert again == record.tree, record.doc_id
