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
malformed is rejected as being in the wrong format altogether.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Iterable

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
    r"^(\d{2})/([A-Z][a-z]{2})/(\d{4}):(\d{2}):(\d{2}):(\d{2}) ([+-])(\d{2})(\d{2})$"
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


def parse_apache_ts(text: str) -> int:
    """Parse a combined-format timestamp like ``01/Sep/2008:10:30:00 +0000``.

    Month names are matched against a fixed English table so parsing does
    not depend on the process locale.
    """
    m = _APACHE_TS_RE.match(text)
    if m is None:
        raise ValueError(f"bad timestamp: {text!r}")
    day, mon, year, hh, mm, ss, sign, oh, om = m.groups()
    month = _MONTHS.get(mon)
    if month is None:
        raise ValueError(f"bad month: {mon!r}")
    dt = datetime(int(year), month, int(day), int(hh), int(mm), int(ss), tzinfo=timezone.utc)
    offset = (int(oh) * 3600 + int(om) * 60) * (1 if sign == "+" else -1)
    return int(dt.timestamp()) - offset


def format_apache_ts(ts: int) -> str:
    dt = datetime.fromtimestamp(ts, tz=timezone.utc)
    return (
        f"{dt.day:02d}/{_MONTH_NAMES[dt.month]}/{dt.year:04d}"
        f":{dt.hour:02d}:{dt.minute:02d}:{dt.second:02d} +0000"
    )


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
class CleaningRules:
    """Which access-log records to drop, applied in a fixed order."""

    window_hours: int = 12
    drop_non_blogger_ips: bool = True
    drop_self_access: bool = True
    drop_index_html: bool = True
    drop_non_html: bool = True
    robot_referrer_patterns: tuple[str, ...] = ("rss", "feed", "bot", "crawler", "spider")

    def __post_init__(self) -> None:
        if self.window_hours < 1:
            raise ValueError("window_hours must be >= 1")


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
        return (
            self.non_blogger_ip + self.robot_referrer + self.index_html
            + self.unknown_url + self.self_access + self.outside_window
        )


@dataclass
class Corpus:
    """Parsed posts and accesses plus the derived join keys.

    ``ip_to_bloggers`` maps each hashed IP to every user id that uploaded
    from it; an access from a shared IP is attributed to all of its
    owners, and the cleaning window is what keeps that over-attribution
    in check.  ``url_to_post`` maps each normalized post URL to its index
    in ``posts``.
    """

    posts: list[BlogPost]
    accesses: list[AccessRecord]
    ip_to_bloggers: dict[str, frozenset[str]]
    url_to_post: dict[str, int]
    duplicate_urls_dropped: int = 0

    @classmethod
    def from_records(
        cls,
        posts: Iterable[BlogPost],
        accesses: Iterable[AccessRecord],
        period: tuple[int, int] | None = None,
    ) -> "Corpus":
        """Build a corpus, dropping posts with duplicate URLs (first wins).

        When ``period`` is given, posts uploaded outside it are dropped
        as well (logs occasionally bleed past the collection window).
        """
        kept: list[BlogPost] = []
        url_to_post: dict[str, int] = {}
        dropped = 0
        for post in posts:
            if period is not None and not (period[0] <= post.upload_ts <= period[1]):
                dropped += 1
                continue
            if post.url in url_to_post:
                dropped += 1
                continue
            url_to_post[post.url] = len(kept)
            kept.append(post)
        owners: dict[str, set[str]] = {}
        for post in kept:
            owners.setdefault(post.hashed_ip, set()).add(post.user_id)
        return cls(
            posts=kept,
            accesses=list(accesses),
            ip_to_bloggers={ip: frozenset(us) for ip, us in owners.items()},
            url_to_post=url_to_post,
            duplicate_urls_dropped=dropped,
        )


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
            if not user_id or not url:  # "" would not read back from clean_posts.tsv
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

def clean_accesses(corpus: Corpus, rules: CleaningRules) -> tuple[Corpus, CleaningReport]:
    """Drop access records that cannot carry reader-to-author influence.

    Rules are applied in order: unknown reader IPs, robot/feed referrers,
    index pages, requests that do not resolve to a known post, accesses
    to the reader's own posts, and finally accesses with no post by the
    reader within +/- ``window_hours``.  The filter is total and
    idempotent; posts are never touched.
    """
    report = CleaningReport()
    user_post_ts: dict[str, list[int]] = {}
    for post in corpus.posts:
        user_post_ts.setdefault(post.user_id, []).append(post.upload_ts)
    for times in user_post_ts.values():
        times.sort()
    window = rules.window_hours * 3600
    patterns = tuple(p.lower() for p in rules.robot_referrer_patterns)

    survivors = corpus.accesses
    if rules.drop_non_blogger_ips:
        kept = [a for a in survivors if a.hashed_ip in corpus.ip_to_bloggers]
        report.non_blogger_ip = len(survivors) - len(kept)
        survivors = kept
    if patterns:
        kept = [
            a for a in survivors
            if not a.referrer or not any(p in a.referrer.lower() for p in patterns)
        ]
        report.robot_referrer = len(survivors) - len(kept)
        survivors = kept
    if rules.drop_index_html:
        kept = [a for a in survivors if not a.request.endswith("index.html")]
        report.index_html = len(survivors) - len(kept)
        survivors = kept
    if rules.drop_non_html:
        kept = [a for a in survivors if a.request in corpus.url_to_post]
        report.unknown_url = len(survivors) - len(kept)
        survivors = kept
    if rules.drop_self_access:
        kept = []
        for a in survivors:
            idx = corpus.url_to_post.get(a.request)
            if idx is not None:
                author = corpus.posts[idx].user_id
                if author in corpus.ip_to_bloggers.get(a.hashed_ip, frozenset()):
                    report.self_access += 1
                    continue
            kept.append(a)
        survivors = kept

    kept = []
    for a in survivors:
        near = False
        for reader in corpus.ip_to_bloggers.get(a.hashed_ip, frozenset()):
            times = user_post_ts.get(reader)
            if not times:
                continue
            lo = bisect_left(times, a.access_ts - window)
            hi = bisect_right(times, a.access_ts + window)
            if hi > lo:
                near = True
                break
        if near:
            kept.append(a)
        else:
            report.outside_window += 1
    survivors = kept

    cleaned = Corpus.from_records(corpus.posts, survivors)
    return cleaned, report


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


def _local(ts: int, tz_offset_hours: int) -> datetime:
    return datetime.fromtimestamp(ts + tz_offset_hours * 3600, tz=timezone.utc)


def activity_histograms(
    corpus: Corpus, tz_offset_hours: int = DEFAULT_TZ_OFFSET_HOURS
) -> HistogramReport:
    """Hour-of-day and day-of-week activity counts plus per-blogger stats."""
    posts_hour = [0] * 24
    posts_wd = [0] * 7
    acc_hour = [0] * 24
    acc_wd = [0] * 7
    per_blogger: Counter[str] = Counter()
    for post in corpus.posts:
        dt = _local(post.upload_ts, tz_offset_hours)
        posts_hour[dt.hour] += 1
        posts_wd[dt.weekday()] += 1
        per_blogger[post.user_id] += 1
    for a in corpus.accesses:
        dt = _local(a.access_ts, tz_offset_hours)
        acc_hour[dt.hour] += 1
        acc_wd[dt.weekday()] += 1
    counts = np.array(sorted(per_blogger.values()), dtype=float)
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
        n_bloggers=len(per_blogger),
    )
