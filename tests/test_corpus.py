import ast
import inspect
import math
import re
import tracemalloc
from dataclasses import astuple
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blogfluence import corpus
from blogfluence.corpus import (
    FormatError,
    access_lines,
    activity_histograms,
    clean_accesses,
    content_lines,
    format_apache_ts,
    lexorder,
    normalize_url,
    parse_apache_ts,
    parse_access_log,
    parse_content_file,
    parse_iso_ts,
)
from blogfluence.synth import SynthConfig, generate

from conftest import (
    BASE_TS,
    AccessRecord,
    BlogPost,
    access_line,
    activity_of,
    assert_same_activity,
    clean_per_record,
    content_line,
    make_access,
    make_activity,
    make_corpus,
    make_post,
    make_posts,
    parse_access_per_record,
    parse_content_per_record,
)


CONTENT_LINE = (
    "h1\t2008-09-01T10:00:00Z\tu1\t/u1/a1\tT\tB\tw1 w2\tdiary"
)
ACCESS_LINE = (
    'h1 - - [01/Sep/2008:10:30:00 +0000] "GET /u2/p7 HTTP/1.1" 200 512 '
    '"http://site/u2" "Mozilla"'
)


class TestParseContent:
    def test_well_formed_line(self):
        posts, report = parse_content_file([CONTENT_LINE])
        assert report.n_ok == 1 and report.n_skipped == 0
        [post] = posts
        assert post.hashed_ip == "h1"
        assert post.upload_ts == parse_iso_ts("2008-09-01T10:00:00Z")
        assert post.user_id == "u1"
        assert post.url == "/u1/a1"
        assert post.title == "T"
        assert post.blog_name == "B"
        assert post.body == "w1 w2"
        assert post.themes == ("diary",)

    def test_empty_stream(self):
        posts, report = parse_content_file([])
        assert len(posts) == 0 and report.n_skipped == 0

    def test_seven_fields_skipped(self):
        bad = "\t".join(CONTENT_LINE.split("\t")[:7])
        posts, report = parse_content_file([CONTENT_LINE, bad])
        assert len(posts) == 1 and report.n_skipped == 1

    def test_url_normalizing_to_empty_skipped(self):
        # A url that normalizes to "" names no post.
        bad = CONTENT_LINE.replace("/u1/a1", "foo://host")
        posts, report = parse_content_file([CONTENT_LINE, bad])
        assert [p.url for p in posts] == ["/u1/a1"] and report.n_skipped == 1

    def test_mostly_malformed_raises(self):
        with pytest.raises(FormatError):
            parse_content_file([CONTENT_LINE, "junk", "more junk"])

    def test_comment_lines_ignored(self):
        posts, report = parse_content_file(["# header", CONTENT_LINE])
        assert len(posts) == 1 and report.n_skipped == 0


class TestParseAccess:
    def test_combined_line(self):
        records, report = parse_access_log([ACCESS_LINE])
        assert report.n_ok == 1
        [rec] = records
        assert rec.hashed_ip == "h1"
        assert rec.access_ts == parse_iso_ts("2008-09-01T10:30:00Z")
        assert rec.request == "/u2/p7"
        assert rec.referrer == "http://site/u2"

    def test_query_string_stripped(self):
        line = ACCESS_LINE.replace("/u2/p7", "/u2/p7?page=2")
        records, _ = parse_access_log([line])
        assert records.request.values() == ["/u2/p7"]

    def test_missing_timestamp_skipped(self):
        line = 'h1 - - "GET /u2/p7 HTTP/1.1" 200 512 "-" "-"'
        records, report = parse_access_log([line, ACCESS_LINE])
        assert len(records) == 1 and report.n_skipped == 1

    def test_dash_referrer_empty(self):
        line = ACCESS_LINE.replace('"http://site/u2"', '"-"')
        records, _ = parse_access_log([line])
        assert records.referrer.values() == [""]

    def test_non_get_skipped(self):
        line = ACCESS_LINE.replace("GET", "POST")
        records, report = parse_access_log([line])
        assert len(records) == 0 and report.n_skipped == 1


def test_normalize_url():
    assert normalize_url("/u2/p7?page=2") == "/u2/p7"
    assert normalize_url("http://host/U2/P7/") == "/u2/p7"
    assert normalize_url("/a/b#frag") == "/a/b"
    assert normalize_url("/") == "/"


def test_normalize_url_lowercases_before_the_scheme_is_stripped():
    # KELVIN SIGN lowercases to an ASCII "k": the URL has the scheme "k".
    assert normalize_url("\u212a://host/p") == "/p"
    assert normalize_url("\u212aTTP://HOST/A/?q") == "/a"


_url_piece = st.one_of(
    st.sampled_from(["://", "/", "?", "#", "Http", "\u212a", "\u0130", "\u00c9"]),
    st.text(max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_url_piece, max_size=8).map("".join))
def test_normalize_url_is_idempotent(url):
    once = normalize_url(url)
    assert normalize_url(once) == once


_safe_text = st.text(
    alphabet=st.characters(blacklist_characters="\t\n\r#,", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=12,
)


@settings(max_examples=50, deadline=None)
@given(
    user=st.from_regex(r"u[0-9]{1,4}", fullmatch=True),
    ts=st.integers(min_value=0, max_value=2**31 - 1),
    title=_safe_text,
    body=_safe_text,
    themes=st.lists(_safe_text, max_size=3),
)
def test_content_round_trip(user, ts, title, body, themes):
    post = BlogPost("iphash", ts, user, f"/{user}/p0", title, "blog", body, tuple(themes))
    once = list(parse_content_file([content_line(post)])[0])
    twice = list(parse_content_file([content_line(once[0])])[0])
    assert once == twice and once[0].upload_ts == ts


@settings(max_examples=50, deadline=None)
@given(
    ts=st.integers(min_value=0, max_value=2**31 - 1),
    path=st.from_regex(r"/[a-z0-9]{1,8}/[a-z0-9]{1,8}", fullmatch=True),
    referrer=st.one_of(st.just(""), st.from_regex(r"http://[a-z]{1,8}", fullmatch=True)),
)
def test_access_round_trip(ts, path, referrer):
    rec = AccessRecord("h9", ts, path, referrer)
    once = list(parse_access_log([access_line(rec)])[0])
    twice = list(parse_access_log([access_line(once[0])])[0])
    assert once == twice == [astuple(rec)]


_MONTH_ABBR = ["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]


def _stamp(when, offset):
    return (f"{when.day:02d}/{_MONTH_ABBR[when.month - 1]}/{when.year:04d}"
            f":{when.hour:02d}:{when.minute:02d}:{when.second:02d} {offset}")


def _oracle_parse_apache_ts(when, offset):
    """The per-stamp datetime conversion that the day lookup replaced."""
    sign = 1 if offset[0] == "+" else -1
    return (int(when.replace(tzinfo=timezone.utc).timestamp())
            - sign * (int(offset[1:3]) * 3600 + int(offset[3:]) * 60))


# Instants on either side of month and year ends and of leap days, and
# anywhere else.
_EDGES = st.sampled_from([
    datetime(2008, 2, 29), datetime(2008, 3, 1), datetime(2009, 1, 1), datetime(2000, 2, 29),
    datetime(1900, 3, 1), datetime(2100, 3, 1), datetime(1970, 1, 1), datetime(2008, 10, 1),
])
_INSTANTS = st.one_of(
    st.builds(lambda edge, s: edge + timedelta(seconds=s), _EDGES, st.integers(-90000, 90000)),
    st.datetimes(datetime(1, 1, 2), datetime(9999, 12, 30)),
).map(lambda when: when.replace(microsecond=0))


@settings(max_examples=400, deadline=None)
@given(when=_INSTANTS, sign=st.sampled_from("+-"), oh=st.integers(0, 23), om=st.integers(0, 59))
def test_apache_ts_day_lookup_matches_datetime(when, sign, oh, om):
    offset = f"{sign}{oh:02d}{om:02d}"
    text = _stamp(when, offset)
    # The second call finds the day in the lookup.
    assert parse_apache_ts(text) == parse_apache_ts(text) == _oracle_parse_apache_ts(when, offset)
    utc = _oracle_parse_apache_ts(when, "+0000")
    assert format_apache_ts(utc) == format_apache_ts(utc) == _stamp(when, "+0000")
    assert parse_apache_ts(format_apache_ts(utc)) == utc


@pytest.mark.parametrize("text", [
    "31/Feb/2008:10:00:00 +0000", "29/Feb/2009:10:00:00 +0000", "29/Feb/1900:10:00:00 +0000",
    "00/Sep/2008:10:00:00 +0000", "31/Sep/2008:10:00:00 +0000", "01/Sep/0000:10:00:00 +0000",
    "01/Sep/2008:24:00:00 +0000", "01/Sep/2008:10:60:00 +0000", "01/Sep/2008:10:00:60 +0000",
    "01/Sap/2008:10:00:00 +0000", "01/sep/2008:10:00:00 +0000", "1/Sep/2008:10:00:00 +0000",
])
def test_impossible_apache_ts_raises(text):
    parse_apache_ts("01/Sep/2008:10:00:00 +0000")  # its day is in the lookup now
    for _ in range(2):
        with pytest.raises(ValueError):
            parse_apache_ts(text)
    line = ACCESS_LINE.replace("01/Sep/2008:10:30:00 +0000", text)
    records, report = parse_access_log([ACCESS_LINE, line])
    assert len(records) == 1 and report.n_skipped == 1


# --------------------------------------------------------------------------
# The column parsers against the per-record parsers they replaced.

_FIELD = st.text(st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
                 max_size=5)
_LINE_ENDS = st.sampled_from(["\n", "\r\n", ""])
# Repeated and malformed values, so that each field is coded over few names.
_ISO = st.sampled_from(["2008-09-01T10:00:00Z", "2008-09-01T10:00:00+09:00", "2008-09-01",
                        "2008-09-02 23:59:59", "2008-13-01T00:00:00Z", "yesterday", ""])
_URLS = st.sampled_from(["/u1/p1", "/U1/P1/", "http://Host/u1/p1?x=1", "/u1/p1#top", "/u2/p2",
                         "/u2/p2?page=2", "/", "", "foo://host", "/u1/index.html"])
_USERS = st.sampled_from(["u1", "u2", "u3", ""])
_THEMES = st.sampled_from(["diary", "a,,b", ",", "", "b,a", "diary,"])
_CONTENT_ROW = st.tuples(st.sampled_from(["h1", "h2", "#h"]), _ISO, _USERS, _URLS, _FIELD,
                         _FIELD, _FIELD, _THEMES)
_CONTENT_LINES = st.lists(st.one_of(
    st.tuples(_CONTENT_ROW, st.sampled_from([8, 8, 8, 7, 9]), _LINE_ENDS).map(
        lambda r: "\t".join((r[0] + ("extra",))[:r[1]]) + r[2]),
    st.sampled_from(["", "\n", "\r\n", "# header\n", "junk\n"])), max_size=14)


@settings(max_examples=300, deadline=None)
@given(_CONTENT_LINES)
@example(["junk", "h1\t2008-09-01\tu1\t/a\tt\tb\tx\td", "# c", "", "junk"])
def test_content_columns_match_per_record_oracle(lines):
    try:
        records, want = parse_content_per_record(lines)
    except FormatError as exc:
        with pytest.raises(FormatError, match=f"^{re.escape(str(exc))}$"):
            parse_content_file(lines)
        return
    posts, report = parse_content_file(lines)
    kept = list(make_posts(records))
    assert (report.n_ok, report.n_skipped) == (want.n_ok, want.n_skipped)
    assert report.n_duplicate == len(records) - len(kept)
    assert list(posts) == kept  # the first post of each url, in file order
    # Columns -> lines -> columns, and the lines are the per-record writer's.
    written = list(content_lines(posts))
    assert written == [content_line(post) for post in kept]
    again, report = parse_content_file(written)
    assert list(again) == kept and report.n_skipped == report.n_duplicate == 0


def parse_content_from_split_lines(stream):
    """``parse_content_file`` as it was before it appended each line's fields
    as it read them: a list of every line's split fields, then the eight
    columns zipped out of it.  The oracle of the streaming parse."""
    lines = [line.split("\t") for line in corpus._lines(stream, "content")]
    ip, stamp, user, url, title, blog_name, body, themes = list(
        zip(*(fields for fields in lines if len(fields) == 8))) or [()] * 8
    upload, parsed = corpus._stamps(parse_iso_ts, stamp)
    user, url = corpus.Strings.of(user), corpus.Strings.of(url).map(normalize_url)
    ok = np.flatnonzero(parsed & user.per_name(bool, bool) & url.per_name(bool, bool))
    keep = np.sort(ok[np.unique(url.codes[ok], return_index=True)[1]])
    report = corpus.ParseReport(len(ok), len(lines) - len(ok), len(ok) - len(keep))
    if report.n_skipped > report.n_ok:
        raise FormatError(f"{report.n_skipped} of {len(lines)} lines malformed; not a posts TSV?")
    return corpus.Posts(
        corpus.Strings.of(ip).take(keep), upload[keep], user.take(keep),
        url.take(keep).values(), [title[i] for i in keep.tolist()],
        corpus.Strings.of(blog_name).take(keep), [body[i] for i in keep.tolist()],
        corpus.Strings.of(themes).map(lambda field: ",".join(corpus._themes(field))).take(keep)
    ), report


@settings(max_examples=300, deadline=None)
@given(_CONTENT_LINES)
@example([])
@example(["junk", "h1\t2008-09-01\tu1\t/a\tt\tb\tx\td", "# c", "", "junk"])
def test_streaming_content_parse_matches_the_split_lines(lines):
    """The same columns and report, or the same refusal."""
    try:
        want, want_report = parse_content_from_split_lines(lines)
    except FormatError as exc:
        with pytest.raises(FormatError, match=f"^{re.escape(str(exc))}$"):
            parse_content_file(lines)
        return
    got, report = parse_content_file(lines)
    assert report == want_report
    assert np.array_equal(got.upload_ts, want.upload_ts)
    assert (got.url, got.title, got.body) == (want.url, want.title, want.body)
    for name in ("hashed_ip", "user_id", "blog_name", "themes"):
        column, oracle = getattr(got, name), getattr(want, name)
        assert column.names == oracle.names
        assert np.array_equal(column.codes, oracle.codes)


_STAMPS = st.one_of(
    st.sampled_from(["01/Sep/2008:10:30:00 +0000", "01/Sep/2008:10:30:00 +0900",
                     "31/Aug/2008:23:59:59 -0130", "31/Feb/2008:10:00:00 +0000",
                     "01/sep/2008:10:00:00 +0000", "01/Sep/2008:24:00:00 +0000", "nonsense"]),
    st.builds(lambda when: _stamp(when, "+0000"), _INSTANTS))
_REQUESTS = st.sampled_from(["GET /u2/p7 HTTP/1.1", "GET /u2/p7?page=2 HTTP/1.1",
                             "GET http://Site/U2/P7/ HTTP/1.0", "GET /u1/index.html HTTP/1.1",
                             "GET /a#frag HTTP/1.1", "POST /u2/p7 HTTP/1.1", "HEAD / HTTP/1.1",
                             "GET /u2/p7", "GET  HTTP/1.1", "-"])
_ACCESS_ROW = st.tuples(st.sampled_from(["h1", "h2", "1.2.3.4"]), _STAMPS, _REQUESTS,
                        st.sampled_from(["-", "", "http://x/rss.xml", "http://friend/u2"]),
                        _LINE_ENDS)
_ACCESS_LINES = st.lists(st.one_of(
    _ACCESS_ROW.map(lambda r: f'{r[0]} - - [{r[1]}] "{r[2]}" 200 512 "{r[3]}" "Mozilla"{r[4]}'),
    st.sampled_from(["", "\r\n", "# comment\n", "junk\n", 'h1 - - "GET /a HTTP/1.1" 200 0\n'])),
    max_size=14)


@settings(max_examples=300, deadline=None)
@given(_ACCESS_LINES)
@example([ACCESS_LINE, "junk", ACCESS_LINE.replace("GET", "POST"), "junk"])
def test_access_columns_match_per_record_oracle(lines):
    try:
        records, want = parse_access_per_record(lines)
    except FormatError as exc:
        with pytest.raises(FormatError, match=f"^{re.escape(str(exc))}$"):
            parse_access_log(lines)
        return
    accesses, report = parse_access_log(lines)
    assert (report.n_ok, report.n_skipped, report.n_duplicate) == (want.n_ok, want.n_skipped, 0)
    assert list(accesses) == list(map(astuple, records))
    written = list(access_lines(accesses))
    assert written == list(map(access_line, records))
    again, report = parse_access_log(written)
    assert list(again) == list(accesses) and report.n_skipped == 0


def parse_access_log_from_matches(stream):
    """``parse_access_log`` as it was before it parsed each line as it read it:
    a list of every line's match, then the four fields zipped out of it.  The
    oracle of the streaming parse."""
    lines = [corpus._APACHE_LINE_RE.match(line) for line in corpus._lines(stream, "access log")]
    host, stamp, request, referrer = list(
        zip(*(m.group(1, 4, 5, 8) for m in lines if m))) or [()] * 4
    access_ts, parsed = corpus._stamps(parse_apache_ts, stamp)
    request = corpus.Strings.of(request)
    parts = [name.split(" ") for name in request.names]
    is_get = [len(p) == 3 and p[0] == "GET" for p in parts]
    ok = np.flatnonzero(parsed & np.array(is_get, dtype=bool)[request.codes])
    malformed = len(lines) - len(stamp) + int((~parsed).sum())
    report = corpus.ParseReport(len(ok), len(lines) - len(ok))
    if malformed > report.n_ok:
        raise FormatError(
            f"{malformed} of {len(lines)} lines malformed; not an Apache combined log?")
    path = corpus.Strings.of(normalize_url(p[1]) if get else "" for p, get in zip(parts, is_get))
    return corpus.Accesses(
        corpus.Strings.of(host).take(ok), access_ts[ok], path.take(request.codes[ok]),
        corpus.Strings.of(referrer).map(lambda r: "" if r == "-" else r).take(ok)), report


@settings(max_examples=300, deadline=None)
@given(_ACCESS_LINES)
@example([])
@example(["# only a comment\n", "\r\n", ""])
def test_streaming_access_parse_matches_the_list_of_matches(lines):
    """The same names, codes, stamps and report, or the same refusal."""
    try:
        want, want_report = parse_access_log_from_matches(lines)
    except FormatError as exc:
        with pytest.raises(FormatError, match=f"^{re.escape(str(exc))}$"):
            parse_access_log(lines)
        return
    got, report = parse_access_log(lines)
    assert report == want_report
    assert np.array_equal(got.access_ts, want.access_ts)
    for name in ("hashed_ip", "request", "referrer"):
        column, oracle = getattr(got, name), getattr(want, name)
        assert column.names == oracle.names
        assert np.array_equal(column.codes, oracle.codes)


def test_access_log_parse_peak_memory_per_line(tmp_path):
    """The parse codes each line's fields and converts its stamp as it reads
    the line: under 300 traced bytes per line of a synth log (four strings
    per line took about 310, the list of matches about 735)."""
    accesses = generate(SynthConfig(n_bloggers=300, n_days=20, reads_per_post_rate=5.0,
                                    seed=4))[0].accesses
    path = tmp_path / "access.log"
    path.write_text("".join(line + "\n" for line in access_lines(accesses)), encoding="utf-8")
    tracemalloc.start()
    try:
        with open(path, encoding="utf-8") as fh:
            parsed, report = parse_access_log(fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_ok == len(accesses) > 20_000
    assert peak < 300 * len(accesses), peak / len(accesses)


def access_records(activity):
    """The accesses of an ``Activity`` as records, referrers blank."""
    return [AccessRecord(activity.ips[ip], t, activity.urls[post], "")
            for post, ip, t in activity.accesses.tolist()]


class TestCleaning:
    def _corpus(self):
        posts = [
            make_post("u1", 0, BASE_TS + 100 * 3600, ip="h1"),
            make_post("u1", 1, BASE_TS + 130 * 3600, ip="h1"),
            make_post("u2", 0, BASE_TS + 90 * 3600, ip="h2"),
        ]
        return posts

    def test_non_blogger_ip_removed(self):
        posts = self._corpus()
        corpus = make_corpus(posts, [make_access("stranger", BASE_TS + 99 * 3600, "/u2/p0")])
        cleaned, report = clean_accesses(corpus, 12)
        assert len(cleaned.accesses) == 0 and report.non_blogger_ip == 1

    def test_self_access_removed(self):
        posts = self._corpus()
        corpus = make_corpus(posts, [make_access("h1", BASE_TS + 99 * 3600, "/u1/p0")])
        cleaned, report = clean_accesses(corpus, 12)
        assert len(cleaned.accesses) == 0 and report.self_access == 1

    def test_access_outside_window_removed(self):
        posts = self._corpus()
        # u1's nearest post is 13h after the access; window is 12h
        corpus = make_corpus(posts, [make_access("h1", BASE_TS + 87 * 3600, "/u2/p0")])
        cleaned, report = clean_accesses(corpus, 12)
        assert len(cleaned.accesses) == 0 and report.outside_window == 1
        cleaned13, _ = clean_accesses(corpus, 13)
        assert len(cleaned13.accesses) == 1

    def test_robot_referrer_removed(self):
        posts = self._corpus()
        acc = make_access("h1", BASE_TS + 99 * 3600, "/u2/p0", referrer="http://x/rss.xml")
        cleaned, report = clean_accesses(make_corpus(posts, [acc]), 12)
        assert len(cleaned.accesses) == 0 and report.robot_referrer == 1

    def test_index_html_removed(self):
        posts = self._corpus()
        acc = make_access("h1", BASE_TS + 99 * 3600, "/u2/index.html")
        cleaned, report = clean_accesses(make_corpus(posts, [acc]), 12)
        assert len(cleaned.accesses) == 0 and report.index_html == 1

    def test_unknown_url_removed(self):
        posts = self._corpus()
        acc = make_access("h1", BASE_TS + 99 * 3600, "/u9/nope")
        cleaned, report = clean_accesses(make_corpus(posts, [acc]), 12)
        assert len(cleaned.accesses) == 0 and report.unknown_url == 1

    def test_good_access_survives_and_resolves(self):
        posts = self._corpus()
        acc = make_access("h1", BASE_TS + 99 * 3600, "/u2/p0")
        cleaned, report = clean_accesses(make_corpus(posts, [acc]), 12)
        assert report.total() == 0
        assert access_records(cleaned) == [acc]
        assert cleaned.urls == ["/u1/p0", "/u1/p1", "/u2/p0"] and cleaned.ips == ["h1", "h2"]

    def test_idempotent_and_subset_on_synth(self):
        corpus, _ = generate(SynthConfig(n_bloggers=30, n_days=6, seed=11))
        once, _ = clean_accesses(corpus, 12)
        twice, report = clean_accesses(make_corpus(corpus.posts, access_records(once)), 12)
        assert_same_activity(twice, once)
        assert report.total() == 0
        assert set(map(astuple, access_records(once))) <= {a._replace(referrer="")
                                                           for a in corpus.accesses}

    def test_window_hours_below_one_raises(self):
        with pytest.raises(ValueError):
            clean_accesses(make_corpus(self._corpus(), []), 0)


_REFERRERS = ["", "", "", "http://friend.example/u2", "http://blog/rssless", "-",
              "http://x/RSS.xml", "http://reader/Feed/atom", "Googlebot", "http://CRAWLER.example",
              "spider"]


@st.composite
def _logs(draw):
    """Posts from a few bloggers over a few IPs, one of which two bloggers
    share, and accesses that trip every cleaning rule; most come from the IP
    of a post, some exactly that post's time +/- the window away from it."""
    window_hours = draw(st.sampled_from([1, 2, 12]))
    window = window_hours * 3600
    shared = [make_post("u0", 90, BASE_TS, ip="ip-shared"),
              make_post("u1", 90, BASE_TS + 3 * 3600, ip="ip-shared")]
    posts = shared + [
        make_post(f"u{user}", serial, BASE_TS + offset, ip=f"ip{ip}", themes=themes)
        for user, serial, offset, ip, themes in draw(st.lists(st.tuples(
            st.integers(0, 3), st.integers(0, 3), st.integers(-2 * window, 30 * 3600),
            st.integers(0, 3), st.lists(st.sampled_from(["a", "b", "c"]), max_size=2)),
            max_size=12))]
    ips = ["ip-shared", "ip0", "ip1", "ip2", "ip3", "stranger"]
    urls = [post.url for post in posts]
    requests = urls * 3 + ["/u1/index.html", "/index.html", "/u9/nope"]
    # A self read through the shared IP: u0 reads u1's post near u0's own.
    accesses = [make_access("ip-shared", BASE_TS + 3600, "/u1/p90")]
    for anchor, from_anchor, ip, request, referrer, shift in draw(st.lists(st.tuples(
            st.sampled_from(posts), st.booleans(), st.sampled_from(ips),
            st.sampled_from(requests), st.sampled_from(_REFERRERS),
            st.sampled_from([-window - 1, -window, 0, window, window + 1, 5 * window])),
            max_size=40)):
        ip = anchor.hashed_ip if from_anchor else ip
        accesses.append(make_access(ip, anchor.upload_ts + shift, request, referrer))
    return make_corpus(posts, accesses), window_hours


@settings(max_examples=300, deadline=None)
@given(_logs())
def test_clean_masks_match_per_record_oracle(logs):
    corpus, window_hours = logs
    got, report = clean_accesses(corpus, window_hours)
    survivors, want = clean_per_record(corpus, window_hours)
    assert report == want
    assert_same_activity(got, activity_of(corpus.posts, survivors))


class TestHistograms:
    def test_hour_bin_counts(self):
        # 23:00 local with a +9h offset means 14:00 UTC
        posts = [make_post("u1", i, BASE_TS + i * 86400 + 14 * 3600) for i in range(3)]
        report = activity_histograms(make_activity(posts), tz_offset_hours=9)
        assert report.posts_by_hour[23] == 3
        assert sum(report.posts_by_hour) == 3
        assert all(c == 0 for h, c in enumerate(report.posts_by_hour) if h != 23)

    def test_sunday_heavy_generator(self):
        corpus, _ = generate(SynthConfig(n_bloggers=60, n_days=21, seed=5))
        report = activity_histograms(clean_accesses(corpus, 12)[0], tz_offset_hours=9)
        # direct count oracle over the generated timestamps
        oracle = [0] * 7
        for post in corpus.posts:
            wd = datetime.fromtimestamp(post.upload_ts + 9 * 3600, tz=timezone.utc).weekday()
            oracle[wd] += 1
        assert report.posts_by_weekday == oracle
        assert max(range(7), key=lambda d: report.posts_by_weekday[d]) == 6  # Sunday

    def test_per_blogger_stats(self):
        posts = [make_post("u1", i, BASE_TS + i * 3600) for i in range(3)]
        posts += [make_post("u2", i, BASE_TS + i * 3600) for i in range(7)]
        report = activity_histograms(make_activity(posts), tz_offset_hours=9)
        assert report.posts_per_blogger_mean == 5.0
        assert report.posts_per_blogger_median == 5.0

    def test_totals_match_records(self):
        corpus, _ = generate(SynthConfig(n_bloggers=25, n_days=5, seed=3))
        cleaned, _ = clean_accesses(corpus, 12)
        report = activity_histograms(cleaned, tz_offset_hours=9)
        assert sum(report.posts_by_hour) == len(corpus.posts)
        assert sum(report.posts_by_weekday) == len(corpus.posts)
        assert sum(report.accesses_by_hour) == len(cleaned.accesses)
        assert sum(report.accesses_by_weekday) == len(cleaned.accesses)


@settings(max_examples=100, deadline=None)
@given(times=st.lists(st.integers(-2**35, 2**35), min_size=1, max_size=20),
       tz=st.integers(-12, 14))
def test_histograms_match_datetime(times, tz):
    posts = [make_post(f"u{i % 3}", i, ts) for i, ts in enumerate(times)]
    reads = [make_access("ip-u0", ts, posts[-1 - i].url) for i, ts in enumerate(times)]
    report = activity_histograms(make_activity(posts, reads), tz_offset_hours=tz)
    local = [datetime(1970, 1, 1) + timedelta(seconds=ts + tz * 3600) for ts in times]
    hours = [sum(when.hour == h for when in local) for h in range(24)]
    weekdays = [sum(when.weekday() == d for when in local) for d in range(7)]
    assert report.posts_by_hour == report.accesses_by_hour == hours
    assert report.posts_by_weekday == report.accesses_by_weekday == weekdays


def test_duplicate_urls_dropped():
    p1 = make_post("u1", 0, BASE_TS)
    p2 = make_post("u1", 0, BASE_TS + 10)  # same url
    posts, report = parse_content_file([content_line(p1), content_line(p2)])
    assert list(posts) == [astuple(p1)]
    assert (report.n_ok, report.n_skipped, report.n_duplicate) == (2, 0, 1)


# --------------------------------------------------------------------------
# lexorder: the one multi-key sort

_SORT_VALUES = st.integers(-3, 3) | st.integers(-2**20, 2**20) | st.integers(-2**62, 2**62)


@settings(max_examples=300, deadline=None)
@given(table=st.integers(1, 4).flatmap(lambda k: st.tuples(
    st.just(k), st.lists(st.tuples(*[_SORT_VALUES] * k), max_size=40))))
@example(table=(1, []))
@example(table=(3, []))
def test_lexorder_is_the_lexsort_order(table):
    n_columns, rows = table
    columns = [np.array([row[i] for row in rows], dtype=np.int64) for i in range(n_columns)]
    got = lexorder(*columns)
    assert got.tolist() == np.lexsort(columns[::-1]).tolist()


@pytest.mark.parametrize("columns, packed", [
    # Three rows pack while the span times 3 stays below 2**63.
    ([[0, (2**63 - 1) // 3 - 1, 7]], True),
    ([[0, (2**63 - 1) // 3, 7]], False),
    ([[-2**62, 2**62 - 1, 0]], False),
    ([[2**62, -2**62, 0, 2**62, -2**62], [1, 0, 1, 0, 1]], False),
    # Spans of 2**32 + 1 and 2**28 + 1 over four rows fit; 2**29 + 1 does not.
    ([[2**32, 0, 2**32, 7], [0, 2**28, 5, 5]], True),
    ([[2**32, 0, 2**32, 7], [0, 2**29, 5, 5]], False),
    ([[2**32, 0, 2**32, 7], [0, 2**32, 5, 5], [3, 3, 1, 1]], False),
])
def test_lexorder_falls_back_to_lexsort_past_int64(columns, packed):
    columns = [np.array(c, dtype=np.int64) for c in columns]
    lexsort, calls = np.lexsort, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np, "lexsort", lambda keys: calls.append(keys) or lexsort(keys))
        got = lexorder(*columns)
    assert (not calls) == packed
    assert got.tolist() == lexsort(columns[::-1]).tolist()


# --------------------------------------------------------------------------
# search: searchsorted a block of sorted needles at a time

_BLOCK = corpus._SEARCH_BLOCK


@settings(max_examples=120, deadline=None)
@given(a=st.lists(st.sampled_from([-math.inf, -2.0, -0.5, 0.0, 1.0, 3.5, math.inf])
                  | st.floats(-1e3, 1e3), max_size=30),
       n=st.integers(0, 40) | st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1]),
       width=st.sampled_from([None, 1, 3]), integer=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(a=[], n=0, width=None, integer=False, seed=0)
@example(a=[1.0, 1.0, 2.0], n=0, width=3, integer=True, seed=0)
@example(a=[-math.inf, 0.0, 0.0, math.inf], n=_BLOCK + 1, width=None, integer=False, seed=1)
def test_search_is_searchsorted(a, n, width, integer, seed):
    """Duplicates in ``a`` and among the needles, no needles, 2-d needles,
    +-inf, and needle counts around the block size."""
    rng = np.random.default_rng(seed)
    a = np.sort(np.array(a))
    pool = np.concatenate([a, [-math.inf, math.inf], rng.uniform(-1e3, 1e3, 5)])
    if integer:
        a, pool = (np.clip(x, -2**40, 2**40).astype(np.int64) for x in (a, pool))
    needles = rng.choice(pool, size=n if width is None else (n, width))
    for side in ("left", "right"):
        got = corpus.search(a, needles, side)
        assert got.shape == needles.shape
        assert got.tolist() == a.searchsorted(needles, side).tolist()


@settings(max_examples=150, deadline=None)
@given(owners=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 9)), max_size=40),
       ip=st.lists(st.integers(0, 40), max_size=60))
@example(owners=[], ip=[])
@example(owners=[(3, 1)], ip=[])
def test_post_keys_readers_match_two_searches(owners, ip):
    """The owners of each IP as one range per IP code, bit for bit the pairs
    of a left and a right ``search`` for each needle, for IPs that own no
    post and IPs past the largest owning one."""
    post_ip, author = np.array(owners, np.int64).reshape(-1, 2).T
    keys = corpus.PostKeys(author, np.zeros_like(author), post_ip, 10)
    ip = np.array(ip, np.int64)
    which, reader = keys.readers(ip)
    want_which, pos = corpus.expand_ranges(corpus.search(keys.owner_ip, ip),
                                           corpus.search(keys.owner_ip, ip, "right"))
    want_reader = keys.owners[pos] % 10
    for got, want in ((which, want_which), (reader, want_reader)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_only_lexorder_sorts_by_several_keys():
    """Every multi-key sort and every stable sort of integers in the package
    goes through ``corpus.lexorder``, so the package keeps one sort path.
    The stable argsorts left are of floats: ``_run_medians``' ranks (their
    signed-zero ties are pinned) and the score rankings."""
    helper = inspect.getsource(lexorder)
    stable = []
    for path in sorted(Path(corpus.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name == "corpus.py":
            assert helper in text
            text = text.replace(helper, "")
        assert "lexsort" not in text, path.name
        stable += [(path.name, ast.unparse(node)) for node in ast.walk(ast.parse(text))
                   if isinstance(node, ast.Call) and any(
                       k.arg == "kind" and getattr(k.value, "value", None) == "stable"
                       for k in node.keywords)]
    assert sorted(stable) == [
        ("analysis.py", "np.argsort(-normalized[candidates], kind='stable')"),
        ("causality.py", "np.argsort(values, kind='stable')"),
        ("factor.py", "np.argsort(-scores, kind='stable')"),
        ("factor.py", "np.argsort(-scores, kind='stable')"),
    ]
