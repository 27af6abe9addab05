"""Parsing, cleaning, and activity reports for blog content and access logs.

Two input formats are supported:

* blog content: UTF-8 tab-separated values, one post per line, eight
  columns in fixed order -- hashed IP, upload timestamp (ISO 8601, UTC),
  user id, URL, title, blog name, body, comma-joined themes.  Bodies and
  titles must not contain tabs or newlines.
* access log: Apache combined format, with the hashed IP in the
  remote-host field.  Only GET requests are kept; the request is
  reduced to a normalized URL path with the query string stripped.

Server logs are noisy, so malformed lines are skipped and counted rather
than aborting the run; a stream where more than half of the lines are
malformed is rejected as being in the wrong format altogether.  Only
``ingest`` parses them, into the ``Corpus`` of column tables that
``synth`` gives too.  A string column that repeats is held as its
distinct names and an int64 code per row, so each value is converted
once.  ``clean_accesses`` remaps the codes into one ``Activity`` table of
integer rows, less the accesses that cannot carry influence (each rule a
mask over the codes), which later stages read from ``activity.tsv``.
The package's integer-table kernels live here too: ``lexorder``, its one
stable sort, ``search``, its search for needles in random order, and
``expand_ranges``.
"""

from __future__ import annotations

import math
import re
from array import array
from collections import defaultdict, namedtuple
from dataclasses import astuple, dataclass
from datetime import datetime, timezone
from itertools import chain, count
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

DEFAULT_TZ_OFFSET_HOURS = 9


class IngestError(ValueError):
    """The input stream could not be read at all."""


class FormatError(IngestError):
    """A stream or artifact is not in the expected format."""


# --------------------------------------------------------------------------
# timestamps and URL normalization

_MONTHS = {
    "Jan": 1, "Feb": 2, "Mar": 3, "Apr": 4, "May": 5, "Jun": 6,
    "Jul": 7, "Aug": 8, "Sep": 9, "Oct": 10, "Nov": 11, "Dec": 12,
}
_MONTH_NAMES = {v: k for k, v in _MONTHS.items()}

_APACHE_TS_RE = re.compile(
    r"^(\d{2}/(?:" + "|".join(_MONTHS) + r")/\d{4}):(\d{2}):(\d{2}):(\d{2}) ([+-])(\d{2})(\d{2})$"
)
_APACHE_LINE_RE = re.compile(
    r'^(\S+) (\S+) (\S+) \[([^\]]+)\] "([^"]*)" (\S+) (\S+) "([^"]*)" "([^"]*)"\s*$'
)
_SCHEME_HOST_RE = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*://[^/]*")


def parse_iso_ts(text: str) -> int:
    """Parse an ISO 8601 timestamp into UTC epoch seconds."""
    dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def format_iso_ts(ts: int) -> str:
    return datetime.fromtimestamp(ts, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# Each "dd/Mon/yyyy" day of a log is converted with datetime once, when first seen.
_DAY_START: dict[str, int] = {}  # day -> UTC epoch seconds of its midnight
_DAY_TEXT: dict[int, str] = {}  # days since the epoch -> day


def parse_apache_ts(text: str) -> int:
    """Parse a combined-format timestamp like ``01/Sep/2008:10:30:00 +0000``.

    Month names are matched against a fixed English table so parsing does
    not depend on the process locale.
    """
    m = _APACHE_TS_RE.match(text)
    if m is None:
        raise ValueError(f"bad timestamp: {text!r}")
    day, hh, mm, ss, sign, oh, om = m.groups()
    start = _DAY_START.get(day)
    if start is None:
        d, mon, year = day.split("/")
        start = _DAY_START[day] = int(
            datetime(int(year), _MONTHS[mon], int(d), tzinfo=timezone.utc).timestamp())
    hh, mm, ss = int(hh), int(mm), int(ss)
    if hh > 23 or mm > 59 or ss > 59:
        raise ValueError(f"bad time of day: {text!r}")
    offset = (int(oh) * 3600 + int(om) * 60) * (1 if sign == "+" else -1)
    return start + hh * 3600 + mm * 60 + ss - offset


def format_apache_ts(ts: int) -> str:
    days, seconds = divmod(ts, 86400)
    day = _DAY_TEXT.get(days)
    if day is None:
        dt = datetime.fromtimestamp(days * 86400, tz=timezone.utc)
        day = _DAY_TEXT[days] = f"{dt.day:02d}/{_MONTH_NAMES[dt.month]}/{dt.year:04d}"
    return "%s:%02d:%02d:%02d +0000" % (day, seconds // 3600, seconds // 60 % 60, seconds % 60)


def normalize_url(url: str) -> str:
    """Reduce a URL to a lowercase host-less path without query or fragment.

    Trailing slashes are stripped (except for the bare root) so that
    content-file URLs and access-log request paths join on equal keys.
    """
    # Lowercase first: a non-ASCII letter can lowercase to an ASCII scheme letter.
    url = _SCHEME_HOST_RE.sub("", url.lower()).split("?", 1)[0].split("#", 1)[0]
    if len(url) > 1:
        url = url.rstrip("/") or "/"
    return url


# --------------------------------------------------------------------------
# column tables

@dataclass(eq=False)
class Strings:
    """A string column as its distinct ``names`` and each row's int64 index
    among them, so that work on a value is done once per distinct value."""

    names: list[str]
    codes: np.ndarray

    @classmethod
    def of(cls, values: Iterable[str]) -> Strings:
        """``values`` coded in order of first appearance."""
        code = defaultdict(count().__next__)
        codes = np.fromiter(map(code.__getitem__, values), np.int64)
        return cls(list(code), codes)

    def values(self) -> list[str]:
        return list(map(self.names.__getitem__, self.codes.tolist()))

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, rows: slice) -> list[str]:  # a chunk, as an artifact writer reads it
        return self.take(rows).values()

    def take(self, rows: np.ndarray) -> Strings:
        return Strings(self.names, self.codes[rows])

    def map(self, fn: Callable[[str], str]) -> Strings:
        """``fn`` of every row, called once per name."""
        return Strings.of(map(fn, self.names)).take(self.codes)

    def per_name(self, fn: Callable[[str], object], dtype: type) -> np.ndarray:
        """``fn`` of every row as an array, called once per name."""
        return np.array([fn(name) for name in self.names], dtype=dtype)[self.codes]

    def ranked(self, rows: np.ndarray) -> tuple[list[str], np.ndarray]:
        """The names that ``rows`` hold, ascending, and each row's index among them."""
        codes = self.codes[rows]
        used = sorted(distinct(codes).tolist(), key=self.names.__getitem__)
        rank = np.zeros(len(self.names), np.int64)
        rank[used] = np.arange(len(used))
        return [self.names[c] for c in used], rank[codes]


def _themes(field: str) -> tuple[str, ...]:
    return tuple(theme for theme in field.split(",") if theme)


Post = namedtuple("Post", "hashed_ip upload_ts user_id url title blog_name body themes")
Access = namedtuple("Access", "hashed_ip access_ts request referrer")


@dataclass(eq=False)
class Posts:
    """Posts as columns in file order, one row per URL, ``themes`` comma-joined;
    iterating yields one ``Post`` per row, its themes a tuple."""

    hashed_ip: Strings
    upload_ts: np.ndarray  # int64 UTC epoch seconds
    user_id: Strings
    url: list[str]  # normalized path
    title: list[str]
    blog_name: Strings
    body: list[str]
    themes: Strings

    def __len__(self) -> int:
        return len(self.url)

    def __iter__(self) -> Iterator[Post]:
        themes = list(map(_themes, self.themes.names))
        return map(Post._make, zip(
            self.hashed_ip.values(), self.upload_ts.tolist(), self.user_id.values(), self.url,
            self.title, self.blog_name.values(), self.body,
            map(themes.__getitem__, self.themes.codes.tolist())))


@dataclass(eq=False)
class Accesses:
    """GET accesses as columns, in log order; iterating yields ``Access`` rows."""

    hashed_ip: Strings
    access_ts: np.ndarray  # int64
    request: Strings  # normalized path
    referrer: Strings  # empty where the log field was "-"

    def __len__(self) -> int:
        return len(self.access_ts)

    def __iter__(self) -> Iterator[Access]:
        return map(Access._make, zip(self.hashed_ip.values(), self.access_ts.tolist(),
                                     self.request.values(), self.referrer.values()))


@dataclass(eq=False)
class Corpus:
    """Parsed posts, one per URL, and parsed accesses, as column tables."""

    posts: Posts
    accesses: Accesses


@dataclass
class ParseReport:
    n_ok: int = 0
    n_skipped: int = 0
    n_duplicate: int = 0  # well-formed posts dropped for a URL seen before


@dataclass
class CleaningReport:
    """Records removed per rule, in application order."""

    non_blogger_ip: int = 0
    robot_referrer: int = 0
    index_html: int = 0
    unknown_url: int = 0
    self_access: int = 0
    outside_window: int = 0

    def total(self) -> int:
        return sum(astuple(self))


@dataclass(eq=False)
class Activity:
    """Posts and accesses as int64 rows over ascending name tables: post i is
    ``urls[i]``, a post's themes are in order, and author, IP, post and theme
    indices are into ``bloggers``, ``ips``, ``urls`` and ``themes``."""

    urls: list[str]
    bloggers: list[str]
    ips: list[str]
    themes: list[str]
    posts: np.ndarray  # (n, 3): author, upload, ip
    post_themes: np.ndarray  # (n, 2): post, theme
    accesses: np.ndarray  # (n, 3): post, ip, access time


# --------------------------------------------------------------------------
# integer tables

def distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d array, ascending, as ``np.unique`` gives
    them, from one sort and a compare of neighbours."""
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def lexorder(*columns: np.ndarray) -> np.ndarray:
    """The stable order of the rows of int64 ``columns``, primary key
    first: the order ``np.lexsort(columns[::-1])`` gives.

    When the columns' spans times the n rows multiply below 2**63, row i
    packs into one int64, its key times n plus i: the packed values are
    distinct, so numpy's fast unstable sort of them gives the stable order."""
    n = len(columns[0])
    if not n:
        return np.arange(0)
    lows = [int(c.min()) for c in columns]
    spans = [int(c.max()) - lo + 1 for c, lo in zip(columns, lows)]
    if math.prod(spans) * n >= 2**63:
        return np.lexsort(columns[::-1])
    key = columns[0] - lows[0]
    for c, lo, span in zip(columns[1:], lows[1:], spans[1:]):
        key *= span
        key += c - lo
    key *= n
    key += np.arange(n)
    key.sort()
    return key % n


_SEARCH_BLOCK = 1 << 14  # needles sorted, and their order held, at once by ``search``


def search(a: np.ndarray, needles: np.ndarray, side: str = "left") -> np.ndarray:
    """``a.searchsorted(needles, side)`` for needles of any shape, a block of
    ``_SEARCH_BLOCK`` at a time: numpy's binary search walks a block far faster
    in ascending order, and each index goes back to its needle's place."""
    flat = np.ravel(needles)
    found = np.empty(flat.size, np.intp)
    for lo in range(0, flat.size, _SEARCH_BLOCK):
        block = flat[lo:lo + _SEARCH_BLOCK]
        order = block.argsort()
        found[lo:lo + len(block)][order] = a.searchsorted(block[order], side)
    return found.reshape(np.shape(needles))


def expand_ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index of the ranges [lo[i], hi[i]), concatenated, and the i
    each one comes from; a range with hi <= lo is empty."""
    counts = np.maximum(hi - lo, 0)
    which = np.repeat(np.arange(len(lo)), counts)
    return which, np.arange(len(which)) - np.repeat(np.cumsum(counts) - counts - lo, counts)


class PostKeys:
    """Sorted int64 keys over posts: (IP, author) pairs, to find the readers
    behind an IP, who are every blogger that posted from it; and (author,
    upload time), to find a reader's posts near a time."""

    def __init__(self, author: np.ndarray, upload: np.ndarray, post_ip: np.ndarray,
                 n_bloggers: int):
        self.n_bloggers = n_bloggers
        self.owners = distinct(post_ip * n_bloggers + author)
        self.owner_ip = self.owners // n_bloggers
        # A query time is clipped into its author's key range so that it never
        # reaches a neighbour's.
        self.t0, last = (int(upload.min()), int(upload.max())) if len(upload) else (0, 0)
        self.span = last - self.t0 + 2
        post_key = author * self.span + (upload - self.t0)
        self.by_time = lexorder(post_key)
        self.keys = post_key[self.by_time]

    def readers(self, ip: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each (i, reader) pair of a reader behind ``ip[i]``, as two columns.
        IP codes are not negative, and the owners of IP c are
        ``owners[starts[c]:starts[c + 1]]``: one ascending search finds every range."""
        starts = self.owner_ip.searchsorted(np.arange(ip.max(initial=-1) + 2))
        which, pos = expand_ranges(starts[ip], starts[ip + 1])
        return which, self.owners[pos] % self.n_bloggers

    def edge(self, reader: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """The end, in ``by_time`` order, of each reader's posts uploaded at or before ``ts``."""
        clipped = np.clip(ts - self.t0, -1, self.span - 1)
        return search(self.keys, reader * self.span + clipped, "right")


# --------------------------------------------------------------------------
# parsing and serialization

def _lines(stream: Iterable[str], what: str) -> Iterator[str]:
    """The lines of ``stream`` without line ends, less blank and ``#`` lines."""
    try:
        for raw in stream:
            line = raw.rstrip("\n").rstrip("\r")
            if line and not line.startswith("#"):
                yield line
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read {what} stream: {exc}") from exc


def _stamps(parse: Callable[[str], int], stamps: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Each stamp in epoch seconds and whether it parsed, one ``parse`` per distinct stamp."""
    stamps = Strings.of(stamps)
    seconds, ok = np.zeros(len(stamps.names), np.int64), np.ones(len(stamps.names), bool)
    for i, text in enumerate(stamps.names):
        try:
            seconds[i] = parse(text)
        except ValueError:
            ok[i] = False
    return seconds[stamps.codes], ok[stamps.codes]


def parse_content_file(stream: Iterable[str]) -> tuple[Posts, ParseReport]:
    """Parse the eight-column posts TSV, keeping the first post of each URL; skip
    and count malformed lines, and ignore blank and ``#`` lines without counting."""
    columns = ip, stamp, user, url, title, blog_name, body, themes = [[] for _ in range(8)]
    appends = [column.append for column in columns]
    n_lines = 0
    for n_lines, line in enumerate(_lines(stream, "content"), 1):
        if len(fields := line.split("\t")) == 8:
            for append, field in zip(appends, fields):
                append(field)
    upload, parsed = _stamps(parse_iso_ts, stamp)
    user, url = Strings.of(user), Strings.of(url).map(normalize_url)
    # "" names no post or blogger
    ok = np.flatnonzero(parsed & user.per_name(bool, bool) & url.per_name(bool, bool))
    keep = np.sort(ok[np.unique(url.codes[ok], return_index=True)[1]])
    report = ParseReport(len(ok), n_lines - len(ok), len(ok) - len(keep))
    if report.n_skipped > report.n_ok:
        raise FormatError(f"{report.n_skipped} of {n_lines} lines malformed; not a posts TSV?")
    return Posts(Strings.of(ip).take(keep), upload[keep], user.take(keep),
                 url.take(keep).values(), [title[i] for i in keep.tolist()],
                 Strings.of(blog_name).take(keep), [body[i] for i in keep.tolist()],
                 Strings.of(themes).map(lambda field: ",".join(_themes(field))).take(keep)), report


def content_lines(posts: Posts) -> Iterator[str]:
    """The posts as lines of the posts TSV, without line ends."""
    return map("\t".join, zip(
        posts.hashed_ip.values(), map(format_iso_ts, posts.upload_ts.tolist()),
        posts.user_id.values(), posts.url, posts.title, posts.blog_name.values(), posts.body,
        posts.themes.values()))


def parse_access_log(stream: Iterable[str]) -> tuple[Accesses, ParseReport]:
    """Parse Apache combined-format lines into access columns.

    Non-GET requests and lines that do not match the combined format are
    skipped and counted.  Query strings are stripped from the request.
    """
    # Each field is coded, and each stamp converted, as its line is read: no
    # string of a line outlives the loop, only the distinct names.
    host, request, referrer = (defaultdict(count().__next__) for _ in range(3))
    host_codes, request_codes, referrer_codes, seconds = (array("q") for _ in range(4))
    parsed = bytearray()
    n_lines = 0
    for n_lines, line in enumerate(_lines(stream, "access log"), 1):
        if m := _APACHE_LINE_RE.match(line):
            host_codes.append(host[m[1]])
            request_codes.append(request[m[5]])
            referrer_codes.append(referrer[m[8]])
            try:
                seconds.append(parse_apache_ts(m[4]))
                parsed.append(True)
            except ValueError:
                seconds.append(0)
                parsed.append(False)
    access_ts, parsed = np.frombuffer(seconds, np.int64), np.frombuffer(parsed, bool)
    request = Strings(list(request), np.frombuffer(request_codes, np.int64))
    parts = [name.split(" ") for name in request.names]
    is_get = [len(p) == 3 and p[0] == "GET" for p in parts]
    ok = np.flatnonzero(parsed & np.array(is_get, dtype=bool)[request.codes])
    # Pattern mismatches and bad stamps only: a well-formed non-GET line
    # does not suggest that the stream is in the wrong format.
    malformed = n_lines - len(parsed) + int((~parsed).sum())
    report = ParseReport(len(ok), n_lines - len(ok))
    if malformed > report.n_ok:
        raise FormatError(
            f"{malformed} of {n_lines} lines malformed; not an Apache combined log?")
    path = Strings.of(normalize_url(p[1]) if get else "" for p, get in zip(parts, is_get))
    referrer = Strings(list(referrer), np.frombuffer(referrer_codes, np.int64))
    return Accesses(Strings(list(host), np.frombuffer(host_codes, np.int64)).take(ok),
                    access_ts[ok], path.take(request.codes[ok]),
                    referrer.map(lambda r: "" if r == "-" else r).take(ok)), report


def access_lines(accesses: Accesses) -> Iterator[str]:
    """The accesses as GET lines of an Apache combined log, without line ends."""
    return map('%s - - [%s] "GET %s HTTP/1.1" 200 0 "%s" "-"'.__mod__, zip(
        accesses.hashed_ip.values(), map(format_apache_ts, accesses.access_ts.tolist()),
        accesses.request.values(), accesses.referrer.map(lambda r: r or "-").values()))


# --------------------------------------------------------------------------
# cleaning

ROBOT_REFERRER_PATTERNS = ("rss", "feed", "bot", "crawler", "spider")


def clean_accesses(corpus: Corpus, window_hours: int) -> tuple[Activity, CleaningReport]:
    """The corpus as one ``Activity`` table, less the accesses that cannot
    carry reader-to-author influence, and how many each rule dropped.

    Rules apply in order: unknown reader IPs, referrers that name a robot or
    a feed (in any case), index pages, requests that resolve to no post,
    reads of a post by one of the reader IP's own bloggers, and reads with
    no post by any of them within +/- ``window_hours``.  String rules are
    worked out once per distinct referrer or request, and every rule is a
    mask over integer codes.  The filter is idempotent; posts are never
    dropped.
    """
    if window_hours < 1:
        raise ValueError("window_hours must be >= 1")
    posts, accesses = corpus.posts, corpus.accesses
    order = np.array(sorted(range(len(posts)), key=posts.url.__getitem__), dtype=np.int64)
    urls = [posts.url[i] for i in order.tolist()]
    bloggers, author = posts.user_id.ranked(order)
    ips, post_ip = posts.hashed_ip.ranked(order)
    upload, read_at = posts.upload_ts[order], accesses.access_ts
    # Each post's themes are one range of the themes of every name, in turn.
    split = list(map(_themes, posts.themes.names))
    n_themes = np.array(list(map(len, split)), dtype=np.int64)
    ends, joined = n_themes.cumsum(), posts.themes.codes[order]
    post, at = expand_ranges((ends - n_themes)[joined], ends[joined])
    themes, theme = Strings.of(chain.from_iterable(split)).ranked(at)
    ip_of, post_of = ({name: i for i, name in enumerate(names)} for names in (ips, urls))
    ip = accesses.hashed_ip.per_name(lambda name: ip_of.get(name, -1), np.int64)
    robot = accesses.referrer.per_name(
        lambda name: any(pattern in name.lower() for pattern in ROBOT_REFERRER_PATTERNS), bool)
    target = accesses.request.per_name(lambda name: post_of.get(name, -1), np.int64)
    index_page = accesses.request.per_name(lambda name: name.endswith("index.html"), bool)

    # Each access of a known IP to a known post, once per reader behind the IP.
    window = window_hours * 3600
    known = np.flatnonzero((ip >= 0) & (target >= 0))
    keys = PostKeys(author, upload, post_ip, len(bloggers))
    which, reader = keys.readers(ip[known])
    access = known[which]
    t = read_at[access]
    self_read, near = np.zeros((2, len(accesses)), dtype=bool)
    self_read[access[reader == author[target[access]]]] = True
    near[access[keys.edge(reader, t + window) > keys.edge(reader, t - window - 1)]] = True

    report = CleaningReport()
    alive = np.ones(len(accesses), dtype=bool)
    for rule, drop in (("non_blogger_ip", ip < 0), ("robot_referrer", robot),
                       ("index_html", index_page), ("unknown_url", target < 0),
                       ("self_access", self_read), ("outside_window", ~near)):
        setattr(report, rule, int((alive & drop).sum()))
        alive &= ~drop
    return Activity(urls, bloggers, ips, themes, np.column_stack([author, upload, post_ip]),
                    np.column_stack([post, theme]),
                    np.column_stack([target[alive], ip[alive], read_at[alive]])), report


# --------------------------------------------------------------------------
# activity histograms

@dataclass
class HistogramReport:
    """Plot-data tables for posting/reading activity, in local time."""

    tz_offset_hours: int
    posts_by_hour: list[int]
    posts_by_weekday: list[int]  # Monday = 0
    accesses_by_hour: list[int]
    accesses_by_weekday: list[int]
    posts_per_blogger_mean: float
    posts_per_blogger_median: float
    posts_per_blogger_q1: float
    posts_per_blogger_q3: float
    n_bloggers: int


def activity_histograms(
    activity: Activity, tz_offset_hours: int = DEFAULT_TZ_OFFSET_HOURS
) -> HistogramReport:
    """Hour-of-day and day-of-week activity counts plus per-blogger stats.
    Day 0 of the epoch, 1970-01-01, was a Thursday: weekday 3."""
    local = [ts + tz_offset_hours * 3600 for ts in (activity.posts[:, 1], activity.accesses[:, 2])]
    posts_hour, acc_hour = (np.bincount(ts // 3600 % 24, minlength=24).tolist() for ts in local)
    posts_wd, acc_wd = (np.bincount((ts // 86400 + 3) % 7, minlength=7).tolist() for ts in local)
    per_blogger = np.bincount(activity.posts[:, 0], minlength=len(activity.bloggers))
    counts = np.sort(per_blogger[per_blogger > 0]).astype(float)
    if counts.size:
        q1, med, q3 = np.percentile(counts, [25.0, 50.0, 75.0])
        mean = float(counts.mean())
    else:
        q1 = med = q3 = mean = float("nan")
    return HistogramReport(
        tz_offset_hours=tz_offset_hours,
        posts_by_hour=posts_hour,
        posts_by_weekday=posts_wd,
        accesses_by_hour=acc_hour,
        accesses_by_weekday=acc_wd,
        posts_per_blogger_mean=mean,
        posts_per_blogger_median=float(med),
        posts_per_blogger_q1=float(q1),
        posts_per_blogger_q3=float(q3),
        n_bloggers=counts.size,
    )
