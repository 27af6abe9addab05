"""Parsing, cleaning, and activity reports for blog content and access logs.

Two input formats are supported:

* blog content: UTF-8 tab-separated values, one post per line, eight
  columns in fixed order -- hashed IP, upload timestamp (ISO 8601, UTC),
  user id, URL, title, blog name, body, comma-joined themes.  Bodies and
  titles must not contain tabs or newlines.
* access log: Apache combined format, with the hashed IP in the
  remote-host field.  Only GET requests produce records; the request is
  reduced to a normalized URL path with the query string stripped.

Server logs are noisy, so malformed lines are skipped and counted rather
than aborting the run; a stream where more than half of the lines are
malformed is rejected as being in the wrong format altogether.  Only
``ingest`` parses them.  ``clean_accesses`` codes the parsed posts and
accesses once into one ``Activity`` table of integer rows and drops the
accesses that cannot carry influence, each rule a boolean mask over those
codes; later stages read the table back from ``activity.tsv``.
"""

from __future__ import annotations

import re
from dataclasses import astuple, dataclass
from datetime import datetime, timezone
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

DEFAULT_TZ_OFFSET_HOURS = 9


class IngestError(Exception):
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
# record types

@dataclass(frozen=True)
class BlogPost:
    hashed_ip: str
    upload_ts: int  # UTC epoch seconds
    user_id: str
    url: str  # normalized path, unique per post
    title: str
    blog_name: str
    body: str
    themes: tuple[str, ...]


@dataclass(frozen=True)
class AccessRecord:
    hashed_ip: str
    access_ts: int
    request: str  # normalized path
    referrer: str  # empty string when the log field was "-"


@dataclass
class ParseReport:
    n_ok: int = 0
    n_skipped: int = 0


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


@dataclass
class Corpus:
    """Parsed posts, one per URL, and parsed accesses."""

    posts: list[BlogPost]
    accesses: list[AccessRecord]
    duplicate_urls_dropped: int = 0

    @classmethod
    def from_records(cls, posts: Iterable[BlogPost], accesses: Iterable[AccessRecord]) -> Corpus:
        """Build a corpus, dropping posts with duplicate URLs (first wins)."""
        posts = list(posts)
        first: dict[str, BlogPost] = {}
        for post in posts:
            first.setdefault(post.url, post)
        return cls(list(first.values()), list(accesses), len(posts) - len(first))


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

def coded(*columns: Sequence[str]) -> tuple[list[str], list[np.ndarray]]:
    """The distinct names of ``columns``, ascending, and each column as indices among them."""
    names = sorted(set().union(*columns))
    code = {name: i for i, name in enumerate(names)}
    return names, [np.fromiter(map(code.__getitem__, c), np.int64, len(c)) for c in columns]


def distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-d array, ascending, as ``np.unique`` gives
    them, from one sort and a compare of neighbours."""
    values = np.sort(values)
    first = np.ones(len(values), dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


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
        self.by_time = np.argsort(post_key)
        self.keys = post_key[self.by_time]

    def readers(self, ip: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each (i, reader) pair of a reader behind ``ip[i]``, as two columns."""
        which, pos = expand_ranges(self.owner_ip.searchsorted(ip),
                                   self.owner_ip.searchsorted(ip, side="right"))
        return which, self.owners[pos] % self.n_bloggers

    def edge(self, reader: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """The end, in ``by_time`` order, of each reader's posts uploaded at or before ``ts``."""
        clipped = np.clip(ts - self.t0, -1, self.span - 1)
        return self.keys.searchsorted(reader * self.span + clipped, side="right")


# --------------------------------------------------------------------------
# parsing and serialization

def content_line(post: BlogPost) -> str:
    return "\t".join(
        (
            post.hashed_ip,
            format_iso_ts(post.upload_ts),
            post.user_id,
            post.url,
            post.title,
            post.blog_name,
            post.body,
            ",".join(post.themes),
        )
    )


def parse_content_file(stream: Iterable[str]) -> tuple[list[BlogPost], ParseReport]:
    """Parse the eight-column posts TSV; skip and count malformed lines.

    Blank lines and ``#`` comment/header lines are ignored without
    counting.
    """
    posts: list[BlogPost] = []
    report = ParseReport()
    try:
        for raw in stream:
            line = raw.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 8:
                report.n_skipped += 1
                continue
            ip, ts_text, user_id, url, title, blog_name, body, themes = fields
            try:
                ts = parse_iso_ts(ts_text)
            except ValueError:
                report.n_skipped += 1
                continue
            url = normalize_url(url)
            if not user_id or not url:  # "" names no post or blogger
                report.n_skipped += 1
                continue
            posts.append(
                BlogPost(
                    hashed_ip=ip,
                    upload_ts=ts,
                    user_id=user_id,
                    url=url,
                    title=title,
                    blog_name=blog_name,
                    body=body,
                    themes=tuple(t for t in themes.split(",") if t),
                )
            )
            report.n_ok += 1
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read content stream: {exc}") from exc
    if report.n_skipped > report.n_ok:
        raise FormatError(
            f"{report.n_skipped} of {report.n_ok + report.n_skipped} lines malformed; "
            "not a posts TSV?"
        )
    return posts, report


def access_line(rec: AccessRecord) -> str:
    referrer = rec.referrer if rec.referrer else "-"
    return (
        f'{rec.hashed_ip} - - [{format_apache_ts(rec.access_ts)}] '
        f'"GET {rec.request} HTTP/1.1" 200 0 "{referrer}" "-"'
    )


def parse_access_log(stream: Iterable[str]) -> tuple[list[AccessRecord], ParseReport]:
    """Parse Apache combined-format lines into access records.

    Non-GET requests and lines that do not match the combined format are
    skipped and counted.  Query strings are stripped from the request.
    """
    records: list[AccessRecord] = []
    report = ParseReport()
    malformed = 0  # pattern mismatches only; well-formed non-GET lines are
    # skipped without suggesting the stream is in the wrong format
    try:
        for raw in stream:
            line = raw.rstrip("\n").rstrip("\r")
            if not line or line.startswith("#"):
                continue
            m = _APACHE_LINE_RE.match(line)
            if m is None:
                report.n_skipped += 1
                malformed += 1
                continue
            host, _ident, _user, ts_text, request, _status, _size, referrer, _agent = m.groups()
            try:
                ts = parse_apache_ts(ts_text)
            except ValueError:
                report.n_skipped += 1
                malformed += 1
                continue
            parts = request.split(" ")
            if len(parts) != 3 or parts[0] != "GET":
                report.n_skipped += 1
                continue
            records.append(
                AccessRecord(
                    hashed_ip=host,
                    access_ts=ts,
                    request=normalize_url(parts[1]),
                    referrer="" if referrer == "-" else referrer,
                )
            )
            report.n_ok += 1
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read access log stream: {exc}") from exc
    if malformed > report.n_ok:
        raise FormatError(
            f"{malformed} of {report.n_ok + report.n_skipped} lines malformed; "
            "not an Apache combined log?"
        )
    return records, report


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
    posts, accesses = sorted(corpus.posts, key=attrgetter("url")), corpus.accesses
    urls = [post.url for post in posts]
    bloggers, (author,) = coded([post.user_id for post in posts])
    ips, (post_ip,) = coded([post.hashed_ip for post in posts])
    themes, (theme,) = coded([theme for post in posts for theme in post.themes])
    upload = np.array([post.upload_ts for post in posts], dtype=np.int64)
    read_at = np.array([a.access_ts for a in accesses], dtype=np.int64)
    ip_of = {name: i for i, name in enumerate(ips)}
    post_of = {url: i for i, url in enumerate(urls)}
    names, (ip,) = coded([a.hashed_ip for a in accesses])
    ip = np.array([ip_of.get(name, -1) for name in names], dtype=np.int64)[ip]
    names, (referrer,) = coded([a.referrer for a in accesses])
    robot = np.array([any(pattern in name.lower() for pattern in ROBOT_REFERRER_PATTERNS)
                      for name in names], dtype=bool)[referrer]
    names, (request,) = coded([a.request for a in accesses])
    target = np.array([post_of.get(name, -1) for name in names], dtype=np.int64)[request]
    index_page = np.array([name.endswith("index.html") for name in names], dtype=bool)[request]

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
    post = np.repeat(np.arange(len(posts)), [len(post.themes) for post in posts])
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
