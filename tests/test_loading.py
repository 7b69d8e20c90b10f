"""Corpus loading: which files a load finds, and the parser against its oracle.

Discovery is checked on a tree holding every rule at once, against an
expected list written out by hand.  The fused MathML walk is checked against
the recursive walk it replaced (``helpers.parse_expression_recursive``): the
same trees, the same sharing of subtrees, and the same first error.
"""

import errno
import os

import pytest

from mathsim import search as search_module
from mathsim.mathml import (
    MAX_DEPTH,
    MathMLParseError,
    UnsupportedConstructError,
    iter_subtrees,
    parse_expression,
)
from mathsim.search import CorpusLoadError, load_corpus

from helpers import parse_expression_recursive, write_random_inputs

EXPR = "<math><ci>x</ci></math>"


def write(path, text=EXPR):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


@pytest.fixture
def mixed_tree(tmp_path):
    """Every discovery rule in one corpus directory."""
    root = tmp_path / "corpus"
    for name in ("b.xml", "a.mathml", "C.XML", "d.Mathml", ".h.xml", "e.f.xml",
                 "sub/g.xml", "sub/deeper/h.mathml", "dir.xml/i.xml", ".hidden/j.xml"):
        write(root / name)
    # Never read: another extension, no suffix at all, a name that is only a suffix.
    for name in ("notes.txt", "k.xml.bak", "l", ".xml", ".mathml", "m.", "sub/n.json"):
        write(root / name, "not MathML")
    (root / "link.xml").symlink_to(root / "sub" / "g.xml")
    (root / "broken.xml").symlink_to(root / "missing.xml")
    (root / "loop.xml").symlink_to(root / "loop.xml")
    (root / "linked_dir").symlink_to(root / "sub", target_is_directory=True)
    (root / "dirlink.xml").symlink_to(root / "sub", target_is_directory=True)
    return root


EXPECTED = [
    (".h", ".h.xml"),
    (".hidden/j", ".hidden/j.xml"),
    ("C", "C.XML"),
    ("a", "a.mathml"),
    ("b", "b.xml"),
    ("d", "d.Mathml"),
    ("dir.xml/i", "dir.xml/i.xml"),
    ("e.f", "e.f.xml"),
    ("link", "link.xml"),
    ("sub/deeper/h", "sub/deeper/h.mathml"),
    ("sub/g", "sub/g.xml"),
]


class TestDiscovery:
    def test_every_rule(self, mixed_tree):
        corpus = load_corpus(mixed_tree)
        assert [(r.doc_id, r.source_path) for r in corpus] == [
            (doc_id, f"{mixed_tree}/{path}") for doc_id, path in EXPECTED
        ]

    @pytest.mark.parametrize("spelling,prefix", [
        ("corpus/", "corpus/"),
        ("./corpus", "corpus/"),
        ("corpus//sub/..", "corpus/sub/../"),
    ], ids=["trailing-slash", "dot-prefix", "dot-dot"])
    def test_paths_keep_the_root_as_given(self, mixed_tree, monkeypatch, spelling, prefix):
        monkeypatch.chdir(mixed_tree.parent)
        corpus = load_corpus(spelling)
        assert [(r.doc_id, r.source_path) for r in corpus] == [
            (doc_id, prefix + path) for doc_id, path in EXPECTED
        ]

    def test_current_directory_adds_no_prefix(self, mixed_tree, monkeypatch):
        monkeypatch.chdir(mixed_tree)
        assert [(r.doc_id, r.source_path) for r in load_corpus(".")] == EXPECTED

    @pytest.mark.parametrize("failing", ["corpus", "corpus/sub", "corpus/sub/deeper"])
    def test_unlistable_directory_fails_the_load(self, mixed_tree, monkeypatch, failing):
        real_scandir = os.scandir
        blocked = str(mixed_tree.parent / failing)

        def scandir(path):
            if path == blocked:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return real_scandir(path)

        monkeypatch.setattr(search_module.os, "scandir", scandir)
        with pytest.raises(CorpusLoadError) as info:
            load_corpus(mixed_tree)
        assert str(info.value) == f"cannot list directory {blocked}: Permission denied"


def distinct_nodes(trees):
    return len({id(node) for tree in trees for _, node in iter_subtrees(tree)})


def assert_same_parses(texts):
    fused, recursive = {}, {}
    got = [parse_expression(text, fused) for text in texts]
    expected = [parse_expression_recursive(text, recursive) for text in texts]
    assert got == expected
    assert distinct_nodes(got) == distinct_nodes(expected) == len(fused) == len(recursive)


class TestFusedWalk:
    def test_bundled_inputs(self, assets_dir):
        paths = sorted((assets_dir / "corpus").glob("*.xml")) + sorted(
            (assets_dir / "queries").glob("*.xml"))
        assert_same_parses([path.read_text(encoding="utf-8") for path in paths])

    def test_random_inputs(self, tmp_path):
        write_random_inputs(tmp_path, seed=811)
        paths = sorted(tmp_path.glob("*/*.xml"))
        assert len(paths) == 35
        assert_same_parses([path.read_text(encoding="utf-8") for path in paths])

    @pytest.mark.parametrize("text,error,message", [
        ("<apply><share/>oops</apply>", MathMLParseError,
         "unexpected character data 'oops' in <apply>"),
        ("<math><apply><share/><ci>x</ci></apply>", MathMLParseError,
         "malformed XML at byte offset 39 (line 1, column 39): "
         "no element found: line 1, column 39"),
        ("<apply><ci>f</ci><share/></apply>", UnsupportedConstructError,
         "unsupported element 'share'"),
        ("<apply><ci>f</ci><ci>x</ci></apply>", MathMLParseError,
         "apply head must be a function symbol or nested apply, got Variable"),
        ("<apply> x<csymbol cd='arith1'>plus</csymbol></apply>", MathMLParseError,
         "unexpected character data 'x' in <apply>"),
        ("<bind><ci>f</ci><bvar><ci>x</ci></bvar><share/></bind>", MathMLParseError,
         "<bind> binder must be a function symbol"),
        ("<bind><csymbol cd='fns1'>lambda</csymbol><bvar><ci>x</ci><ci>y</ci></bvar><share/>"
         "</bind>", MathMLParseError, "<bvar> must contain exactly one <ci>"),
        ("<bind><csymbol cd='fns1'>lambda</csymbol><bvar>t<ci>x</ci></bvar><ci>x</ci></bind>",
         MathMLParseError, "unexpected character data 't' in <bvar>"),
        ("<bind><csymbol cd='fns1'>lambda</csymbol><bvar><ci/></bvar><bvar><cn/></bvar>"
         "<ci>x</ci></bind>", MathMLParseError, "<ci> must contain a bare variable name"),
        ("<bind><csymbol cd='fns1'>lambda</csymbol><ci>x</ci><ci>x</ci></bind>",
         MathMLParseError, "<bind> requires at least one <bvar>"),
        ("<cn><mi>2</mi></cn>", UnsupportedConstructError, "unsupported element 'mi' inside <cn>"),
        ("<csymbol>plus</csymbol>", MathMLParseError, "<csymbol> requires a cd attribute"),
        ("<semantics><ci>x</ci><ci>y</ci></semantics>", MathMLParseError,
         "<semantics> must wrap exactly one content expression, found 2"),
    ], ids=["text-before-construct", "malformed-after-construct", "argument-before-head",
            "head-kind", "leading-text", "binder-kind", "bvar-before-body", "bvar-text",
            "first-bvar-first", "no-bvar", "cn-child", "csymbol-cd", "semantics-count"])
    def test_first_fault_wins(self, text, error, message):
        for parse in (parse_expression, parse_expression_recursive):
            with pytest.raises(MathMLParseError) as info:
                parse(text)
            assert type(info.value) is error and str(info.value) == message

    def test_namespaces_and_attributes(self):
        text = ('<m:math xmlns:m="http://www.w3.org/1998/Math/MathML"><m:apply>'
                '<m:csymbol cd="arith1">plus</m:csymbol><m:cn type="integer"> 2 </m:cn>'
                '<m:ci>x</m:ci></m:apply></m:math>')
        assert_same_parses([text, text.replace("m:", "").replace(":m", "")])

    @pytest.mark.parametrize("levels", [MAX_DEPTH - 1, MAX_DEPTH])
    def test_bound_variable_sits_one_level_below_its_bind(self, levels):
        text = "<bind><csymbol cd='fns1'>lambda</csymbol><bvar><ci>x</ci></bvar><ci>y</ci></bind>"
        for _ in range(levels):
            text = f"<apply><csymbol cd='arith1'>minus</csymbol>{text}</apply>"
        if levels < MAX_DEPTH:
            assert_same_parses([text])
        else:
            for parse in (parse_expression, parse_expression_recursive):
                with pytest.raises(MathMLParseError, match="nested deeper than 128 levels"):
                    parse(text)
