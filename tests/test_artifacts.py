"""The artifact format: exact bytes of every writer, round trips through the
readers, and malformed rows raising FormatError with file and line."""

import io
import math
import os
import re
import sys
import tracemalloc
from contextlib import suppress
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blogfluence import artifacts
from blogfluence.analysis import TrainTestSplit, read_split, write_split
from blogfluence.causality import BucketStat, ZReport, write_zreport_tsv
from blogfluence.corpus import Activity, FormatError, Strings
from blogfluence.factor import (
    InfluenceTensor,
    IolapModel,
    PcldcModel,
    PclModel,
    read_iolap_model,
    read_pcl_model,
    read_pcldc_model,
    read_tensor_tsv,
    write_iolap_model,
    write_pcl_model,
    write_pcldc_model,
    write_tensor_tsv,
)
from blogfluence.implicit import (
    ImplicitNetwork,
    Links,
    read_activity,
    read_links_tsv,
    write_activity,
    write_links_tsv,
)
from blogfluence.synth import GroundTruth, SynthConfig, generate, write_experts_tsv, write_truth_tsv
from blogfluence.textvec import (
    PostTerms,
    count_terms,
    read_post_terms,
    write_post_terms,
)
from blogfluence.topics import TopicModel, read_topic_model, write_topic_model

from conftest import (
    AccessRecord,
    BlogPost,
    TermVector,
    activity_of,
    links_table,
    row_line,
    space,
    write_per_row,
)

TENSOR = InfluenceTensor(
    ["ua", "ub"], 3, np.array([0, 1]), np.array([1, 0]), np.array([2, 0]), np.array([2.0, 1.0])
)
# The one topic an iolap model is read with; it rebuilds the keyword factor.
IOLAP_TOPICS = TopicModel(
    1, np.array([[0.25, 0.75]]), np.array([1.0]), np.zeros((0, 1)), [], ["alpha", "beta"], [],
)
IOLAP = IolapModel(
    core=np.array([[[0.25], [0.75]]]),
    influenced_factors=np.array([[0.5], [0.5]]),
    influencer_factors=np.array([[0.1, 0.9], [0.9, 0.1]]),
    topic_factors=np.array([[0.25], [0.75]]),
    loglik_trace=[],
    bloggers=["ua", "ub"],
    terms=["alpha", "beta"],
)
PCLDC = PcldcModel(
    popularity=np.array([1.5, 0.5]),
    content_weights=np.array([[0.1, -0.2]]),
    memberships=np.array([[0.25, 0.75], [1.0, 0.0]]),
    objective_trace=[],
    nodes=["ua", "ub"],
    terms=["alpha"],
)
PCL = PclModel(np.array([1.5, 0.5]), np.array([[0.25, 0.75], [1.0, 0.0]]), [], ["ua", "ub"])
TOPICS = TopicModel(
    2, np.array([[0.1, 0.9], [0.5, 0.5]]), np.array([0.25, 0.75]), np.zeros((0, 2)), [],
    ["alpha", "beta"], [],
)
SPLIT = TrainTestSplit(
    {("ub", "ua"): 1, ("ua", "ub"): 2},
    [("ua", "uc", frozenset({"beta", "alpha"})), ("ub", "uc", frozenset())],
    ["ua", "ub"],
)
INFLUENCE = ImplicitNetwork(
    links_table([
        ("/ua/q1", "/ub/p1", "ua", "ub", 600, 0.8),
        ("/ub/q2", "/ua/p1", "ub", "ua", 7200, 0.6),
    ]),
    2, 4, 2, 2, 2,
)
LINKS = links_table([
    ("/ua/q1", "/ub/p1", "ua", "ub", 600),
    ("/ua/q1", "/uc/p3", "ua", "uc", 3601),
])
_Z1 = 0.25 / (math.sqrt(0.1875) / math.sqrt(40))
ZREPORT = ZReport(
    [
        BucketStat(1, 40, 30, 0.75, math.sqrt(0.1875), _Z1, True),
        BucketStat(2, 0, 0, math.nan, math.nan, math.nan, False),
        BucketStat(3, 31, 31, 1.0, 0.0, math.inf, True),
    ],
    5, 1,
)
POST_TERMS = PostTerms(
    [("beta", 2), ("alpha", 1), ("gamma", 1)], [("/ua/p1", "ua"), ("/ub/p1", "ub"), ("/ub/p2", "ub")],
    np.array([[0, 1, 2], [0, 0, 1], [1, 0, 3], [1, 2, 1]]),
)
ACTIVITY = Activity(
    ["/ua/p1", "/ub/p1"], ["ua", "ub"], ["h1", "h2"], ["#tag", "diary"],
    np.array([[0, 1220227200, 0], [1, 1220230800, 1]]), np.array([[0, 1], [1, 0], [1, 1]]),
    np.array([[1, 0, 1220227100]]),
)
TRUTH = GroundTruth(
    {("/ub/q2", "/ua/p1"), ("/ua/q1", "/ub/p1")},
    {"ua": {1: ("ux", "uy"), 0: ("uz",)}, "ub": {0: ()}},
)

# name -> (object, write(object, path, header), read(path) or None, exact text)
CASES = {
    "tensor": (
        TENSOR, write_tensor_tsv, read_tensor_tsv,
        "# h\n[bloggers]\nua\nub\n[dims]\nn_terms\t3\n[entries]\n0\t1\t2\t2\n1\t0\t0\t1\n",
    ),
    "iolap": (
        IOLAP, write_iolap_model, lambda p: read_iolap_model(p, IOLAP_TOPICS),
        "# h\n[meta]\nshape\t1\t2\t1\n"
        "[core]\n0\t0\t0\t0.25\n0\t1\t0\t0.75\n"
        "[influenced_factors]\nua\t0\t0.5\nub\t0\t0.5\n"
        "[influencer_factors]\nua\t0\t0.1\nua\t1\t0.9\nub\t0\t0.9\nub\t1\t0.1\n",
    ),
    "pcldc": (
        PCLDC, write_pcldc_model, read_pcldc_model,
        "# h\n[popularity]\nua\t1.5\nub\t0.5\n"
        "[memberships]\nua\t0\t0.25\nua\t1\t0.75\nub\t0\t1.0\nub\t1\t0.0\n"
        "[content_weights]\nalpha\t0\t0.1\nalpha\t1\t-0.2\n",
    ),
    "pcl": (
        PCL, write_pcl_model, read_pcl_model,
        "# h\n[popularity]\nua\t1.5\nub\t0.5\n"
        "[memberships]\nua\t0\t0.25\nua\t1\t0.75\nub\t0\t1.0\nub\t1\t0.0\n",
    ),
    "topics": (
        TOPICS, write_topic_model, lambda p: read_topic_model(p, TOPICS.terms),
        "# h\n[meta]\nn_topics\t2\n[p_t]\n0\t0.25\n1\t0.75\n"
        "[p_w_given_t]\n0\talpha\t0.1\n0\tbeta\t0.9\n1\talpha\t0.5\n1\tbeta\t0.5\n",
    ),
    "train": (
        SPLIT,
        lambda s, p, h: write_split(s, p, p.with_suffix(".test"), h),
        lambda p: read_split(p, p.with_suffix(".test")),
        "# h\nsrc\tdst\tweight\nua\tub\t2\nub\tua\t1\n",
    ),
    "test": (
        SPLIT,
        lambda s, p, h: write_split(s, p.with_suffix(".train"), p, h),
        lambda p: read_split(p.with_suffix(".train"), p),
        "# h\nsrc\tdst\tkeywords\nua\tuc\talpha,beta\nub\tuc\t\n",
    ),
    "influence": (
        INFLUENCE, lambda net, p, h: write_links_tsv(net.links, p, h),
        lambda p: read_links_tsv(p, 2),
        "# h\nq\tp\treader\tauthor\tgap_seconds\tsimilarity\n"
        "/ua/q1\t/ub/p1\tua\tub\t600\t0.8\n/ub/q2\t/ua/p1\tub\tua\t7200\t0.6\n",
    ),
    "links": (
        LINKS, write_links_tsv, lambda p: read_links_tsv(p, 12).links,
        "# h\nq\tp\treader\tauthor\tgap_seconds\tsimilarity\n"
        "/ua/q1\t/ub/p1\tua\tub\t600\tnan\n/ua/q1\t/uc/p3\tua\tuc\t3601\tnan\n",
    ),
    "zreport": (
        ZREPORT, write_zreport_tsv, None,
        "# h\nbucket\tn\theads\txbar\tsigma\tz\tflag\n"
        "1\t40\t30\t0.75\t0.4330127018922193\t3.6514837167011076\tone,two\n"
        "2\t0\t0\tnan\tnan\tnan\tunavailable\n3\t31\t31\t1.0\t0.0\tinf\tone,two\n",
    ),
    "post_terms": (
        POST_TERMS, write_post_terms, read_post_terms,
        "# h\n[terms]\nbeta\t2\nalpha\t1\ngamma\t1\n[posts]\n/ua/p1\tua\n/ub/p1\tub\n/ub/p2\tub\n"
        "[entries]\n0\t1\t2\n0\t0\t1\n1\t0\t3\n1\t2\t1\n",
    ),
    "activity": (
        ACTIVITY, write_activity, read_activity,
        "# h\n[names]\nurl\t/ua/p1\nurl\t/ub/p1\nblogger\tua\nblogger\tub\nip\th1\nip\th2\n"
        "theme\t#tag\ntheme\tdiary\n[posts]\n0\t1220227200\t0\n1\t1220230800\t1\n"
        "[post_themes]\n0\t1\n1\t0\n1\t1\n[accesses]\n1\t0\t1220227100\n",
    ),
    "truth": (TRUTH, write_truth_tsv, None, "# h\nq\tp\n/ua/q1\t/ub/p1\n/ub/q2\t/ua/p1\n"),
    "experts": (
        TRUTH, write_experts_tsv, None,
        "# h\nmember\ttopic\texperts\nua\t0\tuz\nua\t1\tux,uy\nub\t0\t\n",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_writer_bytes_and_round_trip(name, tmp_path):
    obj, write, read, text = CASES[name]
    path = tmp_path / "a.tsv"
    write(obj, path, "# h")
    assert path.read_bytes() == text.encode()
    if read is not None:
        again = tmp_path / "b.tsv"
        write(read(path), again, "# h")
        assert again.read_bytes() == text.encode()


def test_post_terms_round_trip_keeps_int_columns_and_bracketed_urls(tmp_path):
    counts = PostTerms([("aa", 1)], [("[a]/p1", "ua"), ("[b]", "ub")], np.array([[1, 0, 4]]))
    write_post_terms(counts, tmp_path / "pt.tsv", "# h")
    loaded = read_post_terms(tmp_path / "pt.tsv")
    assert loaded.posts == counts.posts and loaded.terms == counts.terms
    assert loaded.entries.dtype == np.int64 and loaded.entries.tolist() == [[1, 0, 4]]
    assert space(loaded, 1).vectors == {"[a]/p1": TermVector({}, 0), "[b]": TermVector({0: 4}, 4)}


@pytest.mark.parametrize("name", sorted(name for name, case in CASES.items() if case[2]))
def test_only_keyed_rows_take_the_row_reader(name, tmp_path, monkeypatch):
    """Every table of a valid artifact reads as whole columns: the row reader
    converts the rows of the keyed sections only, each once."""
    obj, write, read, text = CASES[name]
    path = tmp_path / "a.tsv"
    write(obj, path, "# h")
    converted, convert = [], artifacts._convert
    monkeypatch.setattr(artifacts, "_convert", lambda path, lineno, fields, types: (
        converted.append(lineno) or convert(path, lineno, fields, types)))
    read(path)
    keyed, section = [], None
    for lineno, line in enumerate(text.split("\n"), 1):
        if line.startswith("[") and line.endswith("]"):
            section = line
        elif line and section in ("[meta]", "[dims]"):
            keyed.append(lineno)
    assert converted == keyed


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("1\t0\t3\n", "1\t0\n", "pt.tsv:13: expected 3 tab-separated fields, found 2"),
        ("1\t0\t3\n", "1\t0\tthree\n", "pt.tsv:13: invalid literal for int()"),
        ("1\t0\t3\n", "1\t0\t3.0\n", "pt.tsv:13: invalid literal for int()"),
        ("1\t2\t1\n", "1\t3\t1\n", "pt.tsv: term index 3 is outside [0, 3)"),
        ("1\t2\t1\n", "3\t2\t1\n", "pt.tsv: post index 3 is outside [0, 3)"),
        ("0\t0\t1\n1\t0\t3\n", "1\t0\t3\n0\t0\t1\n", "pt.tsv: [entries] needs post indices in order"),
        ("1\t2\t1\n", "1\t2\t0\n", "pt.tsv: [entries] needs post indices in order and counts >= 1"),
        ("1\t2\t1\n", "1\t2\t99999999999999999999\n", "pt.tsv:14: Python int too large"),
        ("beta\t2\nalpha\t1\n", "alpha\t1\nbeta\t2\n", "pt.tsv: [terms] needs terms ranked"),
        ("alpha\t1\ngamma\t1\n", "gamma\t1\nalpha\t1\n", "pt.tsv: [terms] needs terms ranked"),
        ("gamma\t1\n", "alpha\t1\n", "pt.tsv: [terms] needs terms ranked"),
        ("beta\t2\n", "beta\t3\n", "pt.tsv: [terms] frequencies must count the posts"),
        ("gamma\t1\n", "gamma\t0\n", "pt.tsv: [terms] frequencies must count the posts"),
        ("1\t2\t1\n", "1\t0\t1\n", "pt.tsv: [entries] holds a term twice for one post"),
        ("[entries]\n", "[entries]\n# note\n\n", None),
    ],
)
def test_malformed_post_terms_name_file_and_line(tmp_path, old, new, message):
    path = tmp_path / "pt.tsv"
    write_post_terms(POST_TERMS, path, "# h")
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    if message is None:  # comment and blank lines are skipped, as in every section
        assert read_post_terms(path).entries.tolist() == POST_TERMS.entries.tolist()
        return
    with pytest.raises(FormatError) as info:
        read_post_terms(path)
    assert message in str(info.value)


def test_round_trip_keeps_dtypes_and_network_counts(tmp_path):
    write_tensor_tsv(TENSOR, tmp_path / "t.tsv")
    tensor = read_tensor_tsv(tmp_path / "t.tsv")
    for name in ("influenced", "influencer", "term", "counts"):
        loaded, original = getattr(tensor, name), getattr(TENSOR, name)
        assert loaded.dtype == original.dtype and np.array_equal(loaded, original), name
    write_links_tsv(INFLUENCE.links, tmp_path / "i.tsv")
    net = read_links_tsv(tmp_path / "i.tsv", window_hours=2)
    assert (net.post_count, net.blogger_count, net.post_link_count, net.blogger_link_count) == (
        4, 2, 2, 2
    )
    write_links_tsv(LINKS, tmp_path / "l.tsv")
    links = read_links_tsv(tmp_path / "l.tsv", window_hours=12)
    assert list(links.links) == list(LINKS)
    assert list(net.links) == list(INFLUENCE.links)
    assert (links.post_count, links.blogger_count, links.blogger_link_count) == (3, 3, 2)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("1\t0\t0\t1\n", "1\t0\t0\n", "t.tsv:9: expected 4 tab-separated fields, found 3"),
        ("1\t0\t0\t1\n", "1\t0\t0\t1.5\n", "t.tsv:9: invalid literal for int()"),
        ("1\t0\t0\t1\n", "1\t0\t0\t0\n", "t.tsv: [entries] needs counts >= 1"),
        ("1\t0\t0\t1\n", "1\t0\t0\t-2\n", "t.tsv: [entries] needs counts >= 1"),
        ("n_terms\t3", "n_terms\tthree", "t.tsv:6: invalid literal for int()"),
        ("[dims]", "[sizes]", "t.tsv:5: unexpected section '[sizes]'"),
        ("n_terms\t3\n", "n_terms_x\t3\n", "t.tsv:6: unexpected key 'n_terms_x' in [dims]"),
        ("n_terms\t3\n", "", "t.tsv: [dims] lacks n_terms"),
        ("# h\n[bloggers]\n", "# h\nua\n[bloggers]\n", "t.tsv:2: row before the first [section]"),
        # Every row one field too many: the block parses, at another width.
        ("0\t1\t2\t2\n1\t0\t0\t1\n", "0\t1\t2\t2\t9\n1\t0\t0\t1\t9\n",
         "t.tsv:8: expected 4 tab-separated fields, found 5"),
    ],
)
def test_malformed_section_row_names_file_and_line(tmp_path, old, new, message):
    path = tmp_path / "t.tsv"
    write_tensor_tsv(TENSOR, path, "# h")
    path.write_text(path.read_text().replace(old, new))
    with pytest.raises(FormatError) as info:
        read_tensor_tsv(path)
    assert message in str(info.value)


# Tab- and newline-free fields that do not open a comment, with non-ASCII
# characters and brackets; half of them open with "[", as a section line does.
_TEXT = st.text(
    st.one_of(st.sampled_from("[]é日本\u212aß "), st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\t\n\r")),
    max_size=8,
)
_FIELDS = st.one_of(_TEXT, _TEXT.map("[{}".format)).filter(lambda field: not field.startswith("#"))


_TYPED = {
    str: _FIELDS,
    int: st.integers(-2**63, 2**63 - 1),
    float: st.floats(width=64),
}
# A field that a row's own type may or may not accept, often a number and a tail.
_TAIL = st.text(st.sampled_from("0123456789 -+._e#[]\t\r\x0b\x1c\u3000\u0663naif"), max_size=22)
_DAMAGE = st.one_of(_TAIL, st.tuples(st.integers(-9, 99), _TAIL).map("{0[0]}{0[1]}".format))


@pytest.mark.parametrize("separator", ["\x1c", "\x1d", "\x1e", "\x1f"])
def test_int_columns_refuse_the_separators_that_int_refuses(separator):
    """np.loadtxt reads the separators \\x1c-\\x1f as space; the row reader
    refuses them, and so the column reader does too."""
    with pytest.raises(FormatError, match="t.tsv:3: invalid literal for int()"):
        artifacts.parse_sections("t.tsv", f"[t]\n1\t2\n0{separator}\t3\n", {"t": [int, int]})


def _row_columns(path, rows, types):
    """The columns of the row reader's rows of (line number, line) ``rows``: a
    list per ``str`` field, an int64 or float64 array per number field, one
    (fields, rows) int64 array if every field is ``int``.  The oracle of the
    column reader, which reads ``str`` fields as ``Strings``."""
    oracle = [np.int64 if t is int else t for t in types]
    table = [artifacts._convert(path, n, line.split("\t"), oracle) for n, line in rows]
    columns = [[row[i] for row in table] if t is str else
               np.array([row[i] for row in table], np.int64 if t is int else np.float64)
               for i, t in enumerate(types)]
    return np.array(columns, np.int64).reshape(len(types), -1) if set(types) == {int} else columns


def _same_columns(got, want):
    """``got`` of the column reader holds ``want`` of ``_row_columns``, bit for bit;
    its ``str`` fields are coded over the one table of their distinct names."""
    assert type(got) is type(want) and len(got) == len(want)
    names = {name for column in want if isinstance(column, list) for name in column}
    for column, oracle in zip(got, want):
        if isinstance(oracle, np.ndarray):
            assert column.dtype == oracle.dtype and column.shape == oracle.shape
            assert column.tobytes() == oracle.tobytes()
        else:
            assert column.values() == oracle
            assert len(column.names) == len(names) and set(column.names) == names


def _read_table(tmp_path_factory, types, lines, plain):
    """A table of ``lines`` under its title line, read as a plain table from a
    file or as the text of a ``[t]`` section; the read, the path that it names
    and the rows of the text that it reads, by line number, that the row reader
    does not skip (a file is read with universal newlines)."""
    path = tmp_path_factory.mktemp("table") / "t.tsv"
    title = "\t".join(f"c{i}" for i in range(len(types))) if plain else "[t]"
    text = "".join(f"{line}\n" for line in [title, *lines])
    if plain:
        path.write_text(text, encoding="utf-8")
        text = artifacts.read_text(path)
    rows = [(n, line) for n, line in enumerate(text.split("\n"), 1)
            if n > 1 and line.strip() and line[0] != "#"]
    if plain:
        return lambda: artifacts.read_columns(path, types, title.split("\t")), path, rows
    return lambda: artifacts.parse_sections(path, text, {"t": types})["t"], path, rows


@settings(max_examples=300, deadline=None)
@given(data=st.data(), types=st.one_of(  # half of the tables of int fields only
    st.lists(st.just(int), min_size=1, max_size=4),
    st.lists(st.sampled_from([str, int, float]), min_size=1, max_size=4)),
       plain=st.booleans(), chunk=st.integers(1, 64))
def test_columns_match_the_row_reader(tmp_path_factory, data, types, plain, chunk):
    """A table read as columns, ``chunk`` characters of whole lines at a time,
    holds what the row reader makes of each row, and a row it rejects raises
    the row reader's error: a section or a plain table, rows on either side of
    a chunk edge, skipped lines inside a chunk and a bad row in a later chunk."""
    rows = data.draw(st.lists(st.tuples(*(_TYPED[t] for t in types)), max_size=8))
    lines = [row_line(row)[:-1] for row in rows]
    if lines and data.draw(st.booleans()):  # one field of one row replaced
        row = data.draw(st.integers(0, len(lines) - 1))
        fields = lines[row].split("\t")
        fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(_DAMAGE)
        lines[row] = "\t".join(fields)
    for _ in range(data.draw(st.integers(0, 3))):  # skipped lines anywhere
        lines.insert(data.draw(st.integers(0, len(lines))),
                     data.draw(st.sampled_from(["", " ", "\x0b", "#", "# 1\t2", "#\t3", "\t"])))
    read, path, rows = _read_table(tmp_path_factory, types, lines, plain)
    # A tab-free "[name]" row would open a section.
    assume(plain or not any(line[0] == "[" and line[-1] == "]" and "\t" not in line
                            for _, line in rows))
    try:
        want = _row_columns(path, rows, types)
    except FormatError as exc:
        with patch.object(artifacts, "_PARSE_CHUNK", chunk), pytest.raises(FormatError) as info:
            read()
        assert str(info.value) == str(exc)
        return
    with patch.object(artifacts, "_PARSE_CHUNK", chunk):
        _same_columns(read(), want)


@pytest.mark.parametrize("types, lines, refused", [
    ([str, int], ["a\t1", "b\t2", "# c\t3", "c\tx", "d\t4"], ":5: invalid literal for int()"),
    ([str, float], ["a\t1", "", "b\t2.5", " ", "c\t0.5x"], ":6: could not convert string"),
    ([str, str], ["a\tb", "\t", "#\tx", "c\td", "e\tf\tg"], ":6: expected 2 tab-separated"),
    ([str, str], ["a\tb", "\t", "#\tx", "c\td", " \t\x0b", "a\tc"], None),
    ([int, str], ["1\ta", "2\tb", "#3\tc", "\x0b", "4\ta"], None),
])
@pytest.mark.parametrize("chunk", [1, 4, 9, 1 << 16])
@pytest.mark.parametrize("plain", [False, True])
def test_columns_match_the_row_reader_at_chunk_edges(tmp_path_factory, types, lines, refused,
                                                     chunk, plain):
    """Blank and "#" lines inside a chunk, some with the table's field count,
    are skipped; a bad row after the first chunk raises the row reader's error."""
    read, path, rows = _read_table(tmp_path_factory, types, lines, plain)
    with patch.object(artifacts, "_PARSE_CHUNK", chunk):
        if refused is None:
            _same_columns(read(), _row_columns(path, rows, types))
            return
        with pytest.raises(FormatError) as info:
            _row_columns(path, rows, types)
        oracle = str(info.value)
        assert oracle.startswith(f"{path}{refused}")
        with pytest.raises(FormatError) as info:
            read()
        assert str(info.value) == oracle


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(st.tuples(_FIELDS, _FIELDS, _FIELDS, _FIELDS, st.integers(1, 43200),
                               st.one_of(st.none(), st.floats(0, 1))), max_size=12),
       chunk=st.integers(1, 128))
def test_links_codec_round_trip(rows, chunk, tmp_path_factory):
    path = tmp_path_factory.mktemp("links") / "l.tsv"
    write_links_tsv(links_table(rows), path, "# h")
    text = path.read_bytes()
    with patch.object(artifacts, "_PARSE_CHUNK", chunk):  # a few rows per chunk
        links = read_links_tsv(path, 12)
    assert [tuple(link) for link in links.links] == rows
    write_links_tsv(links.links, path, "# h")
    assert path.read_bytes() == text


# Names that a one-field row could not carry: blank, a comment, a section line.
_NAMES = st.one_of(_TEXT, st.sampled_from(["", " ", "#", "#x", "[x]", "[names]", "url"]))


@settings(max_examples=80, deadline=None)
@given(posts=st.lists(st.tuples(_NAMES, _NAMES, _NAMES, st.lists(_NAMES, max_size=3),
                                st.integers(-2**40, 2**40)), max_size=10,
                      unique_by=lambda post: post[0]),
       reads=st.lists(st.tuples(_NAMES, st.integers(0, 12), st.integers(-2**40, 2**40)),
                      max_size=12))
def test_activity_round_trip(posts, reads, tmp_path_factory):
    urls = [url for url, *_ in posts]
    activity = activity_of(
        [BlogPost(ip, ts, user, url, "", "", "", tuple(themes))
         for url, user, ip, themes, ts in posts],
        # A read of a url that names no post is dropped.
        [AccessRecord(ip, ts, urls[i] if i < len(urls) else "/nowhere", "")
         for ip, i, ts in reads])
    path = tmp_path_factory.mktemp("activity") / "a.tsv"
    write_activity(activity, path, "# h")
    text = path.read_bytes()
    activity = read_activity(path)
    assert activity.urls == sorted(urls)
    assert [(url, activity.bloggers[a], t, activity.ips[ip])
            for url, (a, t, ip) in zip(activity.urls, activity.posts.tolist())
            ] == [(url, user, ts, ip) for url, user, ip, _, ts in sorted(posts)]
    themes = [[] for _ in urls]
    for post, theme in activity.post_themes.tolist():
        themes[post].append(activity.themes[theme])
    assert themes == [list(themes) for _, _, _, themes, _ in sorted(posts)]
    assert [(activity.ips[ip], activity.urls[p], t) for p, ip, t in activity.accesses.tolist()
            ] == [(ip, urls[i], ts) for ip, i, ts in reads if i < len(urls)]
    write_activity(activity, path, "# h")
    assert path.read_bytes() == text


def test_reading_links_peak_memory_per_link(tmp_path):
    """Reading 20,000 links traces under 400 bytes per link: the name columns
    are coded a chunk of rows at a time (a reader that held every field as a
    string took about 660)."""
    rng = np.random.default_rng(3)
    n = 20_000
    urls = sorted(f"/u{i:04d}/p{j}" for i in range(300) for j in range(20))
    links = Links(urls, [f"u{i:04d}" for i in range(300)], *rng.integers(0, len(urls), (2, n)),
                  *rng.integers(0, 300, (2, n)), rng.integers(1, 43201, n),
                  np.where(rng.random(n) < 0.1, np.nan, rng.random(n)))
    path = tmp_path / "l.tsv"
    write_links_tsv(links, path, "# h")
    tracemalloc.start()
    try:
        net = read_links_tsv(path, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(net.links) == n
    assert peak < 400 * n


def _one_format(rows):
    """The text of an integer block as one ``%`` over every field: the writer's
    output before it formatted in chunks."""
    return ("\t".join(["%d"] * rows.shape[1]) + "\n") * len(rows) % tuple(rows.ravel().tolist())


@settings(max_examples=40, deadline=None)
@given(n_rows=st.one_of(st.integers(0, 50), st.sampled_from([4095, 4096, 4097, 8193])),
       width=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1, 10**6, 2**63 - 1]))
def test_integer_block_chunks_write_the_one_format_bytes(tmp_path_factory, n_rows, width, seed,
                                                          scale):
    rng = np.random.default_rng(seed)
    rows = rng.integers(-scale, scale, size=(n_rows, width), dtype=np.int64, endpoint=True)
    path = tmp_path_factory.mktemp("chunks") / "block.tsv"
    artifacts.write_sections(path, "# h", {"block": rows.T})
    assert path.read_text(encoding="utf-8") == "# h\n[block]\n" + _one_format(rows)


def test_integer_block_write_peak_memory(tmp_path):
    """A 200,000 x 3 int64 block is formatted a chunk at a time: under 2 MB
    traced (one tuple of every field took about 29 MB)."""
    rows = np.arange(600_000, dtype=np.int64).reshape(-1, 3) * 7919
    path = tmp_path / "block.tsv"
    tracemalloc.start()
    try:
        artifacts.write_sections(path, None, {"block": rows.T})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert path.stat().st_size == len("[block]\n" + _one_format(rows))


def test_strings_chunk_formats_in_its_rows_not_the_names():
    """One chunk of a ``Strings`` over 10**6 names formats in a few hundred
    kB, far less than the 8 MB list of its names: it looks up its own rows
    (a lookup through an object array of every name traced the table)."""
    names = [f"n{i}" for i in range(10**6)]
    column = Strings(names, np.arange(10**6, dtype=np.int64)[::-1].copy())
    tracemalloc.start()
    try:
        fmt, values = artifacts._format(column[:artifacts._CHUNK])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fmt == "%s" and values == names[:-artifacts._CHUNK - 1:-1]
    assert peak < sys.getsizeof(names) // 16


# Fields float may or may not take: number forms, the separators \x1c-\x1f that
# np.loadtxt reads as space, and the whitespace that float strips.
_FLOAT_FIELDS = st.one_of(
    st.floats(width=64).map(repr),
    st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "-0.0", "1_0", " 1.5 ",
                     "1e400", "-1e400", "1e-400", "0x1p3", "1.5e", "1,5", "", " ", "\x1c1",
                     "1\x1f", "\x1d", "1\x0b", "\u30002", "\xa01", "1\x85", "+.5", "#1"]),
    st.tuples(st.text(st.sampled_from(" \x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000"),
                      max_size=2),
              st.floats(width=64).map(repr),
              st.text(st.sampled_from(" \x0b\x1c\x1f\u3000_e5"), max_size=2)).map("".join),
    st.text(st.sampled_from("0123456789.eE+-_ nafiNI\x1c\x1f\x0b"), max_size=6),
)


def _float_or_none(field: str):
    try:
        return float(field)
    except ValueError:
        return None


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.lists(_FLOAT_FIELDS, min_size=1, max_size=2).filter(
           lambda row: not ("\t".join(row).startswith("[") and "\t".join(row).endswith("]"))),
       max_size=6).filter(lambda rows: len({len(row) for row in rows}) <= 1))
def test_float_columns_take_what_float_takes(rows):
    """An all-float section reads, field by field, the values float reads, bit
    for bit, and is refused where float refuses a field of a kept row."""
    width = len(rows[0]) if rows else 1
    lines = ["\t".join(row) for row in rows]
    kept = [row for row, line in zip(rows, lines) if line.strip() and line[0] != "#"]
    values = [[_float_or_none(field) for field in row] for row in kept]
    text = "".join(f"{line}\n" for line in ["[t]", *lines])
    if any(v is None for row in values for v in row):
        with pytest.raises(FormatError):
            artifacts.parse_sections("t.tsv", text, {"t": [float] * width})
        return
    columns = artifacts.parse_sections("t.tsv", text, {"t": [float] * width})["t"]
    assert len(columns) == width
    for i, column in enumerate(columns):
        assert column.dtype == np.float64
        assert column.tobytes() == np.array([row[i] for row in values], np.float64).tobytes()


# Values of each kind of column, with those a row cannot carry: blank,
# whitespace-only, "#..." and "[x]" strings, and the float and int extremes.
_WRITTEN = {
    "str": st.one_of(_FIELDS, st.sampled_from(["", " ", "\x0b", "\u3000", "#", "#a", "[x]", "[]"])),
    "float": st.one_of(st.floats(width=64),
                       st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324])),
    "int": st.one_of(st.integers(-(2**63 - 1), 2**63 - 1),
                     st.sampled_from([2**63 - 1, -(2**63 - 1)])),
    # numpy scalars and bools, as a keyed [meta] row may hold
    "scalar": st.one_of(st.booleans(), st.booleans().map(np.bool_),
                        st.integers(-(2**63 - 1), 2**63 - 1).map(np.int64),
                        st.floats(width=64).map(np.float64), st.floats(width=32).map(np.float32),
                        st.integers(-9, 9), st.floats(width=64)),
}


@st.composite
def _column(draw, n: int):
    """A list, ``Strings``, int64 array or float64 array of ``n`` values."""
    kind = draw(st.sampled_from(["str", "strings", "float", "int", "scalar"]))
    if kind == "strings":
        names = draw(st.lists(_WRITTEN["str"], min_size=1, max_size=4))
        return Strings(names, np.array(draw(st.lists(st.integers(0, len(names) - 1),
                                                     min_size=n, max_size=n)), np.int64))
    values = draw(st.lists(_WRITTEN[kind], min_size=n, max_size=n))
    dtype = {"float": np.float64, "int": np.int64}.get(kind)
    return values if dtype is None else np.array(values, dtype)


@st.composite
def _block(draw):
    """A block as ``_columns`` returns it: its columns, a (fields, rows) int64
    array, or a keyed row of a key and scalars."""
    n, width = draw(st.integers(0, 9)), draw(st.integers(1, 4))
    form = draw(st.sampled_from(["columns", "columns", "ints", "keyed"]))
    if form == "ints":
        return np.array(draw(st.lists(_WRITTEN["int"], min_size=n * width,
                                      max_size=n * width)), np.int64).reshape(width, n)
    if form == "keyed":
        return [[draw(_WRITTEN["str"])],
                *([draw(_WRITTEN["scalar"])] for _ in range(width))]
    return [draw(_column(n)) for _ in range(width)]


@settings(max_examples=300, deadline=None)
@given(blocks=st.lists(_block(), min_size=1, max_size=3), plain=st.booleans(),
       chunk=st.integers(1, 7))
def test_column_writer_matches_the_row_writer(blocks, plain, chunk, tmp_path_factory):
    """Every block writes the bytes that the row writer writes of its rows, or
    raises its FormatError and leaves neither the file nor a temporary."""
    directory = tmp_path_factory.mktemp("writers")
    path = directory / "t.tsv"

    def outcome(write):
        try:
            write()
        except FormatError as exc:
            assert os.listdir(directory) == []
            return str(exc)
        text = path.read_bytes()
        path.unlink()
        return text

    if plain:  # a plain table: a column-name line and one block
        names = [f"c{i}" for i in range(len(blocks[0]))]
        titled = [("\t".join(names), blocks[0])]
        write = lambda: artifacts.write_rows(path, "# h", blocks[0], names)
    else:
        titled = [(f"[s{i}]", block) for i, block in enumerate(blocks)]
        write = lambda: artifacts.write_sections(
            path, "# h", {f"s{i}": block for i, block in enumerate(blocks)})
    rows = [(title, zip(*(column[:] for column in block))) for title, block in titled]
    with patch.object(artifacts, "_CHUNK", chunk):
        assert outcome(write) == outcome(lambda: write_per_row(path, "# h", rows))


def test_writing_links_peak_memory_per_link(tmp_path):
    """Writing 100,000 links traces under 40 bytes per link: the columns are
    formatted a chunk at a time (writing the name columns as lists traced
    about 338)."""
    rng = np.random.default_rng(5)
    n = 100_000
    urls = sorted(f"/u{i:04d}/p{j}" for i in range(300) for j in range(20))
    links = Links(urls, [f"u{i:04d}" for i in range(300)], *rng.integers(0, len(urls), (2, n)),
                  *rng.integers(0, 300, (2, n)), rng.integers(1, 43201, n),
                  np.where(rng.random(n) < 0.1, np.nan, rng.random(n)))
    tracemalloc.start()
    try:
        write_links_tsv(links, tmp_path / "l.tsv", "# h")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * n


def test_write_cut_short_keeps_the_old_file(tmp_path):
    """An exception in the middle of a write leaves the old bytes and no
    temporary file; so does one in the middle of a copy."""
    path = tmp_path / "a.tsv"
    artifacts.write_rows(path, "# h", [["ua"], [1]], ("name", "n"))
    old = path.read_bytes()

    class Cut:
        def __str__(self):
            raise RuntimeError("cut")

    names = ["ub"] * 10_000 + [Cut()]  # past the first written chunk
    with pytest.raises(RuntimeError, match="cut"):
        artifacts.write_rows(path, "# h2", [names, np.arange(len(names))], ("name", "n"))
    assert path.read_bytes() == old and os.listdir(tmp_path) == ["a.tsv"]
    with pytest.raises(OSError):
        artifacts.copy_file(tmp_path / "missing.tsv", path)
    assert path.read_bytes() == old and os.listdir(tmp_path) == ["a.tsv"]
    artifacts.copy_file(path, tmp_path / "b.tsv")
    assert (tmp_path / "b.tsv").read_bytes() == old
    assert sorted(os.listdir(tmp_path)) == ["a.tsv", "b.tsv"]


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("\t3601\tnan\n", "\t3601\n", "l.tsv:4: expected 6 tab-separated fields, found 5"),
        ("\t3601\tnan\n", "\t1h\tnan\n", "l.tsv:4: invalid literal for int()"),
        ("similarity\n", "sim\n", "l.tsv:2: expected the column names"),
        ("\t3601\tnan\n", "\t99999999999999999999\tnan\n", "l.tsv:4: Python int too large"),
        ("\tuc\t3601\tnan\n", "\tuc\t3601\tnan\tx\n",
         "l.tsv:4: expected 6 tab-separated fields, found 7"),
        # One field too many and one too few: the split alone would still
        # read an integer gap column and a float similarity column.
        ("\t600\tnan\n/ua/q1\t/uc/p3\tua\tuc\t3601\tnan\n",
         "\t600\t7\tnan\n/ua/q1\t/uc/p3\tua\t3601\tnan\n",
         "l.tsv:3: expected 6 tab-separated fields, found 7"),
        ("\t3601\tnan\n", "\t43201\tnan\n", "l.tsv: gap_seconds 43201 is outside (0, 43200]"),
        ("\t3601\tnan\n", "\t0\tnan\n", "l.tsv: gap_seconds 0 is outside (0, 43200]"),
        ("\t3601\tnan\n", "\t3601\t0.5x\n", "l.tsv:4: could not convert string to float"),
        ("\t3601\tnan\n", "\t3601\t1.5\n", "l.tsv: similarity 1.5 is outside [0, 1]"),
        ("\t3601\tnan\n", "\t3601\t-0.25\n", "l.tsv: similarity -0.25 is outside [0, 1]"),
        ("\t3601\tnan\n", "\t3601\tinf\n", "l.tsv: similarity inf is outside [0, 1]"),
        ("\t3601\tnan\n", "\t3601\t-inf\n", "l.tsv: similarity -inf is outside [0, 1]"),
        # The same faults in the first row are found there, not only at the end.
        ("\tub\t600\tnan\n", "\tub\t600\n", "l.tsv:3: expected 6 tab-separated fields, found 5"),
        ("\t600\tnan\n", "\t43201\tnan\n", "l.tsv: gap_seconds 43201 is outside (0, 43200]"),
        ("\t600\tnan\n", "\t0\tnan\n", "l.tsv: gap_seconds 0 is outside (0, 43200]"),
        ("\t600\tnan\n", "\t600\t1.5\n", "l.tsv: similarity 1.5 is outside [0, 1]"),
        ("\t600\tnan\n", "\t600\t0.5x\n", "l.tsv:3: could not convert string to float"),
    ],
)
def test_malformed_row_names_file_and_line(tmp_path, old, new, message):
    path = tmp_path / "l.tsv"
    write_links_tsv(LINKS, path, "# h")
    path.write_text(path.read_text().replace(old, new))
    with pytest.raises(FormatError) as info:
        read_links_tsv(path, 12)
    assert message in str(info.value)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("0\t1\t2\t2\n", "0\t2\t2\t2\n", "t.tsv: influencer blogger index 2 is outside [0, 2)"),
        ("0\t1\t2\t2\n", "-1\t1\t2\t2\n", "t.tsv: influenced blogger index -1 is outside [0, 2)"),
        ("0\t1\t2\t2\n", "0\t1\t3\t2\n", "t.tsv: term index 3 is outside [0, 3)"),
    ],
)
def test_tensor_index_out_of_range(tmp_path, old, new, message):
    path = tmp_path / "t.tsv"
    write_tensor_tsv(TENSOR, path, "# h")
    path.write_text(path.read_text().replace(old, new))
    with pytest.raises(FormatError) as info:
        read_tensor_tsv(path)
    assert message in str(info.value)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("0\t1\t0\t0.75\n", "0\t2\t0\t0.75\n",
         "m.tsv: [core] needs each of its 1 x 2 x 1 cells exactly once; "
         "axis 1 index 2 is outside [0, 2)"),
        ("0\t1\t0\t0.75\n", "0\t1\t-1\t0.75\n",
         "m.tsv: [core] needs each of its 1 x 2 x 1 cells exactly once; "
         "axis 2 index -1 is outside [0, 1)"),
        ("ub\t1\t0.1\n", "ub\t-1\t0.1\n",
         "m.tsv: [influencer_factors] needs each of its 2 x 2 cells exactly once; "
         "axis 1 index -1 is outside [0, 2)"),
        # a cell listed twice, none missing from the row count; a shape of no
        # cells, or of other topics than the topic model's
        ("0\t1\t0\t0.75\n", "0\t0\t0\t0.75\n",
         "m.tsv: [core] needs each of its 1 x 2 x 1 cells exactly once; "
         "it lists 1 of them in 2 rows"),
        ("shape\t1\t2\t1\n", "shape\t0\t2\t1\n", "m.tsv: [meta] shape (0, 2, 1) needs I, J >= 1"),
        ("shape\t1\t2\t1\n", "shape\t1\t2\t2\n",
         "m.tsv: [meta] shape (1, 2, 2) needs I, J >= 1 and K = 1, the topic model's topic count"),
    ],
)
def test_iolap_index_out_of_range(tmp_path, old, new, message):
    path = tmp_path / "m.tsv"
    write_iolap_model(IOLAP, path, "# h")
    assert old in path.read_text()
    path.write_text(path.read_text().replace(old, new))
    with pytest.raises(FormatError) as info:
        read_iolap_model(path, IOLAP_TOPICS)
    assert message in str(info.value)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("1\talpha\t0.5\n", "5\talpha\t0.5\n",
         "m.tsv: [p_w_given_t] needs each of its 2 x 2 cells exactly once; "
         "axis 0 index 5 is outside [0, 2)"),
        ("1\talpha\t0.5\n", "-1\talpha\t0.5\n",
         "m.tsv: [p_w_given_t] needs each of its 2 x 2 cells exactly once; "
         "axis 0 index -1 is outside"),
        ("1\t0.75\n", "2\t0.75\n",
         "m.tsv: [p_t] needs each of its 2 cells exactly once; axis 0 index 2 is outside [0, 2)"),
        ("1\t0.75\n", "", "m.tsv: [p_t] needs each of its 2 cells exactly once; "
         "it lists 1 of them in 1 rows"),
        ("1\t0.75\n", "1\t0.75\n1\t0.5\n",
         "m.tsv: [p_t] needs each of its 2 cells exactly once; it lists 2 of them in 3 rows"),
        ("1\talpha\t0.5\n", "1\tzeta\t0.5\n",
         "m.tsv: [p_w_given_t] needs each of its 2 x 2 cells exactly once; "
         "axis 1 label 'zeta' is not among its 2"),
    ],
)
def test_topic_model_index_out_of_range(tmp_path, old, new, message):
    path = tmp_path / "m.tsv"
    write_topic_model(TOPICS, path, "# h")
    path.write_text(path.read_text().replace(old, new))
    with pytest.raises(FormatError) as info:
        read_topic_model(path, TOPICS.terms)
    assert message in str(info.value)


def test_matrix_rows_must_match_the_given_labels():
    columns = [Strings.of(["ua", "uz"]), np.array([0, 0]), np.array([0.5, 0.5])]
    with pytest.raises(FormatError, match="axis 0 label 'uz' is not among its 2"):
        artifacts.cell_array("m.tsv", {"m": columns}, "m", ["ua", "ub"], None)
    matrix, labels = artifacts.cell_array("m.tsv", {"m": columns}, "m", None, None)
    assert labels == [["ua", "uz"], None] and matrix.tolist() == [[0.5], [0.5]]
    with pytest.raises(FormatError, match=r"axis 1 index -1 is outside \[0, 1\)"):
        artifacts.cell_array("m.tsv", {"m": [Strings.of(["ua", "ua"]), np.array([0, -1]),
                                              np.array([0.5, 0.5])]}, "m", None, None)
    # A cell that is missing, or given twice, is refused, not read as 0 or overwritten.
    once = r"m.tsv: \[m\] needs each of its 2 x 2 cells exactly once; it lists (3|4) of them"
    missing = [Strings.of(["ua", "ua", "uz"]), np.array([0, 1, 0]), np.ones(3)]
    repeated = [Strings.of(["ua", "ua", "uz", "uz", "uz"]), np.array([0, 1, 0, 1, 1]), np.ones(5)]
    for columns in (missing, repeated):
        with pytest.raises(FormatError, match=once):
            artifacts.cell_array("m.tsv", {"m": columns}, "m", None, 2)


_LABELS = st.text(alphabet="ab[] \u00e9", max_size=3)
_CELL_VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e308, -1e308])


@settings(max_examples=120, deadline=None)
@given(data=st.data(), shape=st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_cells_round_trip_and_refuse_each_damage(tmp_path_factory, data, shape):
    """An array of 1-3 axes, labelled on any of them, reads back bit for bit
    with each axis given or taken from the rows; a row deleted or duplicated,
    an index outside its axis and an unknown label are each refused naming
    the file, the section and the shape; a value that is not finite is
    refused naming the cell."""
    labels = [data.draw(st.none() | st.lists(_LABELS, min_size=n, max_size=n, unique=True))
              for n in shape]
    array = np.array(data.draw(st.lists(_CELL_VALUES, min_size=math.prod(shape),
                                        max_size=math.prod(shape)))).reshape(shape)
    path = tmp_path_factory.mktemp("cells") / "c.tsv"
    artifacts.write_sections(path, "# h", {"a": artifacts.cell_columns(array, *labels)})
    spec = {"a": [int if names is None else str for names in labels] + [float]}
    given_axes = [n if names is None else names for n, names in zip(shape, labels)]
    axes = [data.draw(st.sampled_from([None, axis])) for axis in given_axes]
    got, got_labels = artifacts.cell_array(path, artifacts.read_sections(path, spec), "a", *axes)
    assert got.shape == array.shape and got.tobytes() == array.tobytes()
    assert got_labels == labels

    lines = path.read_text().split("\n")
    head, rows = lines[:2], lines[2:-1]  # the header and [a] lines, then one row per cell
    at = data.draw(st.integers(0, len(rows) - 1))
    fields = rows[at].split("\t")
    damages = [rows[:at] + rows[at + 1:], rows[:at + 1] + rows[at:]]
    for axis, names in enumerate(labels):
        bad = fields[:axis] + ["zz" if names else str(data.draw(st.sampled_from([-1, shape[axis]])))]
        damages.append(rows[:at] + ["\t".join(bad + fields[axis + 1:])] + rows[at + 1:])
    refusal = re.escape(f"{path}: [a] needs each of its {' x '.join(map(str, shape))} cells "
                        "exactly once; ")
    for damaged in damages:
        path.write_text("\n".join(head + damaged) + "\n")
        with pytest.raises(FormatError, match=refusal):
            artifacts.cell_array(path, artifacts.read_sections(path, spec), "a", *given_axes)
    token = data.draw(st.sampled_from(["nan", "inf", "-inf", "1e309"]))
    rows[at] = "\t".join(fields[:-1] + [token])
    path.write_text("\n".join(head + rows) + "\n")
    with pytest.raises(FormatError, match=re.escape(
            f"{path}: [a] cell ({', '.join(fields[:-1])}) holds {float(token)}, not a finite")):
        artifacts.cell_array(path, artifacts.read_sections(path, spec), "a", *given_axes)


# name -> write(artifact whose first row opens with the name, path): each writer
# whose rows can open with a blogger, url or term name.
NAMED_WRITERS = {
    "tensor": lambda bad, p: write_tensor_tsv(replace(TENSOR, bloggers=[bad, "ub"]), p, "# h"),
    "iolap": lambda bad, p: write_iolap_model(replace(IOLAP, bloggers=[bad, "ub"]), p, "# h"),
    "pcldc": lambda bad, p: write_pcldc_model(replace(PCLDC, nodes=[bad, "ub"]), p, "# h"),
    "pcl": lambda bad, p: write_pcl_model(replace(PCL, nodes=[bad, "ub"]), p, "# h"),
    "train": lambda bad, p: write_split(TrainTestSplit({(bad, "ua"): 1}, [], [bad, "ua"]),
                                        p, p.with_suffix(".test"), "# h"),
    "test": lambda bad, p: write_split(TrainTestSplit({}, [(bad, "uc", frozenset())], []),
                                       p.with_suffix(".train"), p, "# h"),
    "links": lambda bad, p: write_links_tsv(links_table([(bad, "/ub/p1", "ua", "ub", 60)]), p,
                                            "# h"),
    "post_terms": lambda bad, p: write_post_terms(
        PostTerms([("beta", 2)], [(bad, "ua")], np.zeros((0, 3), np.int64)), p, "# h"),
    "experts": lambda bad, p: write_experts_tsv(GroundTruth(set(), {bad: {0: ("ux",)}}), p,
                                                "# h"),
}


@pytest.mark.parametrize("name", sorted(NAMED_WRITERS))
def test_writer_refuses_a_row_that_reads_back_as_a_comment(name, tmp_path):
    path = tmp_path / "a.tsv"
    with pytest.raises(FormatError) as info:
        NAMED_WRITERS[name]("#a", path)
    assert str(path) in str(info.value) and "'#a'" in str(info.value)
    assert not path.exists()  # no truncated artifact is left behind
    NAMED_WRITERS[name]("a#", path)  # a "#" inside a name is written
    assert "a#" in path.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(NAMED_WRITERS))
def test_writer_refuses_a_field_that_holds_a_carriage_return(name, tmp_path):
    # Read with universal newlines, "a\rb" would read back as two lines.
    path = tmp_path / "a.tsv"
    with pytest.raises(FormatError) as info:
        NAMED_WRITERS[name]("a\rb", path)
    assert str(path) in str(info.value) and repr("a\rb") in str(info.value)
    assert not path.exists()


@pytest.mark.parametrize("bad", ["", "  ", "\x0b", "\u3000", "#", "[a]", "[]", "[a b]", "\r",
                                 "a\rb"])
def test_one_field_row_refused_as_blank_comment_or_section(bad, tmp_path):
    path = tmp_path / "t.tsv"
    with pytest.raises(FormatError, match="would read back as a blank, comment or"):
        write_tensor_tsv(replace(TENSOR, bloggers=["ua", bad]), path, "# h")
    with pytest.raises(FormatError):
        artifacts.write_rows(path, None, [["ua", bad]], ("name",))


@settings(max_examples=150, deadline=None)
@given(names=st.lists(st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n"),
            max_size=4),
    st.sampled_from(["#", "[", "]", " ", "\x1c", "\u2028"]).flatmap(
        lambda c: st.text(st.sampled_from(c + "a[]"), max_size=3).map(c.__add__)),
), min_size=1, max_size=6, unique=True))
@example(names=["ua", "a\rb"])
def test_names_are_refused_or_read_back(names, tmp_path_factory):
    path = tmp_path_factory.mktemp("names") / "t.tsv"
    tensor = InfluenceTensor(names, 1, *(np.zeros(0, np.int64),) * 3, np.zeros(0))
    unreadable = [n for n in names if not n.strip() or n[0] == "#"
                  or (n[0] == "[" and n[-1] == "]") or "\r" in n]
    if unreadable:
        with pytest.raises(FormatError):
            write_tensor_tsv(tensor, path, "# h")
    else:
        write_tensor_tsv(tensor, path, "# h")
        assert read_tensor_tsv(path).bloggers == names


# --------------------------------------------------------------------------
# The section reader as it was before it walked sections by offsets and
# parsed number sections a chunk at a time: a split of the text into
# section bodies, and one np.loadtxt over each number section's joined
# bodies.  The oracle of the offset walk and of the chunked parse.

_SPLIT_SECTION = re.compile(r"\n\[([^\t\n]*)\](?=\n|\Z)")


def _one_shot_columns(path, bodies, types):
    dtype = {frozenset({int}): np.int64, frozenset({float}): np.float64}.get(frozenset(types))
    if dtype is not None:
        text = "".join(body for _, body in bodies)
        with suppress(ValueError):
            block = np.loadtxt(io.StringIO(text), dtype=dtype, delimiter="\t", comments=None,
                               ndmin=2) if text.strip() else np.zeros((0, len(types)), dtype)
            if block.shape[1] == len(types) and not any(c in text for c in "\x1c\x1d\x1e\x1f"):
                columns = block.copy().T
                return columns if dtype is np.int64 else list(columns)
    return _row_columns(
        path, [row for first, body in bodies for row in artifacts._rows(body, first)], types)


def parse_sections_one_shot(path, text, specs):
    out = {name: {} if isinstance(spec, dict) else [] for name, spec in specs.items()}
    pieces = _SPLIT_SECTION.split("\n" + text)
    for lineno, _ in artifacts._rows(pieces[0], 0):
        raise FormatError(f"{path}:{lineno}: row before the first [section]")
    lineno = pieces[0].count("\n") + 1
    for name, body in zip(pieces[1::2], pieces[2::2]):
        spec = specs.get(name)
        if spec is None:
            raise FormatError(f"{path}:{lineno}: unexpected section '[{name}]'")
        if isinstance(spec, dict):
            for n, line in artifacts._rows(body, lineno):
                key, *fields = line.split("\t")
                if key not in spec:
                    raise FormatError(f"{path}:{n}: unexpected key {key!r} in [{name}]")
                out[name][key] = artifacts._convert(path, n, fields, spec[key])
        else:
            out[name].append((lineno, body))
        lineno += body.count("\n") + 1
    for name, spec in specs.items():
        if name not in pieces[1::2]:
            raise FormatError(f"{path}: lacks [{name}]")
        if not isinstance(spec, dict):
            out[name] = _one_shot_columns(path, out[name], spec)
        elif missing := sorted(spec.keys() - out[name].keys()):
            raise FormatError(f"{path}: [{name}] lacks {', '.join(missing)}")
    return out


# Fields that int or float may or may not take, and np.loadtxt may read otherwise.
_ODD_FIELDS = st.sampled_from([
    "99999999999999999999", "-9223372036854775809", "9223372036854775807", "nan", "inf",
    "-inf", "1e400", "1.5", " 2", "3 ", "x", "", "1\x1c", "\x1d2", "\x1e", "4\x1f", "5\r",
    "\u30006", "#7", "[8]"])
_INTS = st.integers(-2**63, 2**63 - 1).map(str)
_FLOATS = st.floats(width=64).map(repr)
# Mostly rows that parse, so that one odd field decides the read.
_INT_ROWS = st.lists(st.one_of(_INTS, _INTS, _INTS, _ODD_FIELDS),
                     min_size=1, max_size=3).map("\t".join)
_FLOAT_ROWS = st.lists(st.one_of(_FLOATS, _FLOATS, _FLOATS, _ODD_FIELDS),
                       min_size=1, max_size=3).map("\t".join)
_SECTION_LINES = st.one_of(
    _INT_ROWS, _INT_ROWS, _FLOAT_ROWS, _FLOAT_ROWS,
    st.sampled_from(["[i]", "[f]", "[k]", "[s]", "[other]", "[i", "", " ", "\r", "#",
                     "# c\t1", "\x1c", "x\t1", "y\t1.5\t2", "z\t1", "ab\t1"]),
)


def _same_sections(got, want):
    assert got.keys() == want.keys()
    for name, value in want.items():
        if isinstance(value, dict):
            assert repr(got[name]) == repr(value)
            continue
        _same_columns(got[name], value)


@settings(max_examples=400, deadline=None)
@given(lines=st.lists(_SECTION_LINES, max_size=16), first=st.sampled_from(["[i]", "[f]", ""]),
       ends=st.sampled_from(["\n", "\r\n"]), last=st.booleans(),
       widths=st.tuples(st.integers(1, 3), st.integers(1, 3)), chunk=st.integers(1, 64))
@example(lines=["1\t2", "3\x1c\t4"], first="[i]", ends="\n", last=True, widths=(2, 1), chunk=4)
@example(lines=["1.5", "[f]", "nan", "-inf\x1f"], first="[f]", ends="\n", last=False,
         widths=(1, 1), chunk=1)
@example(lines=["1\t2", "", "3\t4", "5"], first="[i]", ends="\r\n", last=True, widths=(2, 1),
         chunk=6)
@example(lines=["99999999999999999999\t1"], first="[i]", ends="\n", last=True, widths=(2, 1),
         chunk=64)
def test_sections_match_the_one_shot_reader(lines, first, ends, last, widths, chunk):
    """Parsed a chunk of ``chunk`` characters at a time from the sections'
    offsets, every section holds the one-shot reader's columns, bit for
    bit, or the read raises its error text: blank, ``#`` and whitespace
    lines, the separators \\x1c-\\x1f, rows of another field count on
    either side of a chunk cut, int64 overflow, nan and inf included."""
    text = ends.join([first, *lines]) + (ends if last else "")
    specs = {"i": [int] * widths[0], "f": [float] * widths[1], "s": [str, int],
             "k": {"x": (int,), "y": (float, float)}}
    try:
        want = parse_sections_one_shot("t.tsv", text, specs)
    except FormatError as exc:
        with patch.object(artifacts, "_PARSE_CHUNK", chunk), pytest.raises(FormatError) as info:
            artifacts.parse_sections("t.tsv", text, specs)
        assert str(info.value) == str(exc)
        return
    with patch.object(artifacts, "_PARSE_CHUNK", chunk):
        _same_sections(artifacts.parse_sections("t.tsv", text, specs), want)


@pytest.mark.parametrize("text", [
    "[i]\n1\t2\n3\t4\n[f]\n1.5\n[k]\nx\t1\ny\tnan\t2\n[s]\nab\t3\n",
    "[i]\n1\t2\n\n3\t4\n[i]\n5\t6\n[k]\nx\t1\ny\t1\t2\n[f]\n[s]\n",
    "[k]\nx\t1\ny\t1\t2\n[i]\n1\t2\n3\n[f]\n[s]\n",
])
@pytest.mark.parametrize("chunk", [1, 4, 5, 64, 1 << 16])
def test_sections_match_the_one_shot_reader_at_chunk_cuts(text, chunk):
    """A repeated section, a blank line, and a row of another field count
    after a chunk cut, at each chunk size."""
    specs = {"i": [int, int], "f": [float], "s": [str, int], "k": {"x": (int,), "y": (float, float)}}
    try:
        want = parse_sections_one_shot("t.tsv", text, specs)
    except FormatError as exc:
        with patch.object(artifacts, "_PARSE_CHUNK", chunk), pytest.raises(FormatError) as info:
            artifacts.parse_sections("t.tsv", text, specs)
        assert str(info.value) == str(exc) == "t.tsv:6: expected 2 tab-separated fields, found 1"
        return
    with patch.object(artifacts, "_PARSE_CHUNK", chunk):
        _same_sections(artifacts.parse_sections("t.tsv", text, specs), want)


def test_reading_post_terms_peak_memory_per_entry(tmp_path):
    """Reading post_terms.tsv at the pipeline benchmark's synth config (about
    180,000 entries) traces under 60 bytes per entry: the text, the entries'
    one table and one chunk of the parse (a one-shot parse, which held the
    text's UCS-4 copy, a split copy and loadtxt's grown buffer, took about
    96)."""
    posts = generate(SynthConfig(n_bloggers=300, n_days=20, vocab_size=1000, n_topics=8,
                                 reads_per_post_rate=5.0, copy_prob=0.6, copy_fraction=0.45,
                                 seed=7000))[0].posts
    path = tmp_path / "post_terms.tsv"
    write_post_terms(count_terms(posts), path, "# h")
    tracemalloc.start()
    try:
        terms = read_post_terms(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(terms.entries) > 150_000
    assert peak < 60 * len(terms.entries), peak / len(terms.entries)
