"""The results log: one JSON line per decided or attempted pair.

A record has seven fields, written in this order: lhs, rhs, status, method,
stage, seconds and witness.  _record_line renders a record exactly as
json.dumps(vars(record)) does, and iter_rows is the log's only reader: it
checks every line as it reads it and yields each record as a Row.  It reads
a line one of two ways, taking the log a block of whole lines at a time: a
block whose every line is in the writer's form is matched by one findall
and converted and checked column by column, and any other block is read
line by line from its first line by json.loads.  Both give the same rows
and the same errors.  load_results and propagate_log both fold each
block's columns into closure's status map; propagate_log then closes the
log in place, keeping each unsolved line's pair code for its second pass.
Nothing here runs an engine.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import re
from array import array
from collections import namedtuple
from collections.abc import Iterator
from dataclasses import dataclass
from json.decoder import scanstring
from json.encoder import encode_basestring_ascii
from operator import eq, or_

from .closure import PROVEN, REFUTED, ROW_BITS, StatusEntry, StatusMap, propagate

UNSOLVED = "unsolved"

CLOSURE_STAGE = 0  # derived records sit outside the schedule's 1-based stages

# Treated as immutable: nothing assigns to a record's fields once built.  It is
# not frozen because a frozen __init__ sets each field through
# object.__setattr__, about half the cost of building a record, and a log holds
# one per ordered pair; it stays a dataclass for dataclasses.replace.
@dataclass(slots=True)
class ResultRecord:
    lhs: int
    rhs: int
    status: str  # PROVEN | REFUTED | UNSOLVED
    method: str | None
    stage: int | None
    seconds: float
    witness: str | None

    def __post_init__(self):
        if self.status not in (PROVEN, REFUTED, UNSOLVED):
            raise ValueError(f"unknown status {self.status!r}")
        if self.status != UNSOLVED and (self.method is None or self.stage is None):
            raise ValueError("decided records need method and stage")
        # closure keys its bitsets by id, and JSON admits floats, booleans and
        # NaN where an int or a finite number belongs
        if type(self.lhs) is not int or type(self.rhs) is not int:
            raise ValueError("lhs and rhs must be ints")
        if self.lhs < 1 or self.rhs < 1 or self.lhs == self.rhs:
            raise ValueError("lhs and rhs must be distinct positive ids")
        if self.stage is not None and (type(self.stage) is not int or self.stage < 0):
            raise ValueError("stage must be a nonnegative int")
        if type(self.seconds) not in (int, float) or not 0 <= self.seconds < math.inf:
            raise ValueError("seconds must be finite and nonnegative")
        if self.method is not None and type(self.method) is not str:
            raise ValueError("method must be a string")
        if self.witness is not None and type(self.witness) is not str:
            raise ValueError("witness must be a string")



_RECORD_KEYS = ("lhs", "rhs", "status", "method", "stage", "seconds", "witness")
_KEY_SET = frozenset(_RECORD_KEYS)
# a record's fields as the log reader yields them, with every check of
# ResultRecord made; a tuple costs a fraction of a ResultRecord to build
Row = namedtuple("Row", _RECORD_KEYS)


def _record_line(record: ResultRecord | Row) -> str:
    """The record as json.dumps(vars(record)) writes it, keys in _RECORD_KEYS
    order: strings escaped to ASCII by json's own encoder, numbers as repr
    prints them (ResultRecord admits no bool, NaN or infinity)."""
    method, stage, witness = record.method, record.stage, record.witness
    return (
        f'{{"lhs": {record.lhs!r}, "rhs": {record.rhs!r}, '
        f'"status": {encode_basestring_ascii(record.status)}, '
        f'"method": {"null" if method is None else encode_basestring_ascii(method)}, '
        f'"stage": {"null" if stage is None else repr(stage)}, '
        f'"seconds": {record.seconds!r}, '
        f'"witness": {"null" if witness is None else encode_basestring_ascii(witness)}}}\n'
    )


# A line as _record_line writes it, matched over a block of lines, one match
# per line, its newline included, with each field's text a group.  It admits
# only what ResultRecord admits but for two checks _columns makes: lhs
# differs from rhs, and seconds is finite.  Ids and stage are JSON ints
# without a sign or leading zero, status one of the three, a decided
# record's lookahead asks for a method and a stage, method is made only of
# characters JSON prints unescaped, and seconds has a point or an exponent
# as float's repr prints it (json.loads reads an integral seconds as an int,
# so that line is left to it).  Method and witness keep their quotes (or are
# null).  A witness is a JSON string in ASCII, any of json's escapes
# included, unrolled so that no text matches two ways.  The line anchor
# keeps a match from starting within a line.
_ID = r"[1-9][0-9]*"
_PLAIN = r"[ !#-\[\]-~]*"
_SECONDS = rf"(?:0|{_ID})(?:\.[0-9]+(?:e[-+][0-9]+)?|e[-+][0-9]+)"
_STRING = rf'"{_PLAIN}(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{{4}}){_PLAIN})*"'
_BLOCK_ROW = re.compile(
    rf'^\{{"lhs": ({_ID}), "rhs": ({_ID}), '
    rf'"status": "(unsolved|(?:proven|refuted)(?=", "method": "{_PLAIN}", "stage": [0-9]))", '
    rf'"method": (null|"{_PLAIN}"), "stage": (null|0|{_ID}), '
    rf'"seconds": ({_SECONDS}), "witness": (null|{_STRING})\}}\n',
    re.M,
)
# a block's lines, each with its newline: split at "\n" alone, as iterating
# the file splits them (str.splitlines also splits at "\x0b", "\u2028", ...)
_LINES = re.compile(r"[^\n]*\n|[^\n]+")
# the characters _scan reads as one block, then to the end of its last line:
# about 130 lines of a campaign log, whose columns cost a small fraction of
# the records a log holds
_BLOCK_CHARS = 1 << 14


class _Ints(dict):
    """The value of each id or stage text of the lines read (None for a null
    stage), converted once: a log names each law on many lines."""

    def __init__(self):
        super().__init__(null=None)

    def __missing__(self, text: str) -> int:
        value = self[text] = int(text)
        return value


class _Strings(dict):
    """The value of each method or witness text _BLOCK_ROW matched: None for
    null, else the JSON string's characters, decoded by json's scanner when
    it escapes some.  With keep, each value is converted once, as a log
    names few methods; a witness is converted each time it is read."""

    def __init__(self, keep: bool):
        super().__init__(null=None)
        self.keep = keep

    def __missing__(self, text: str) -> str:
        value = scanstring(text, 1)[0] if "\\" in text else text[1:-1]
        if self.keep:
            self[text] = value
        return value


def _write_log(path: str, lines) -> None:
    """Replace the log with these lines, each a record as _record_line writes
    it, in one rename, so a run killed mid-write leaves the previous log
    intact."""
    temporary = f"{path}.tmp"
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        os.replace(temporary, path)
    except BaseException:
        if os.path.exists(temporary):
            os.remove(temporary)
        raise


def _ends_with_newline(path: str) -> bool:
    """Whether the file is empty or its last line is complete, so records can
    be appended to it."""
    with open(path, "rb") as handle:
        if handle.seek(0, os.SEEK_END) == 0:
            return True
        handle.seek(-1, os.SEEK_END)
        return handle.read(1) == b"\n"


def _unique_keys(pairs: list) -> dict:
    # json.loads would keep the last of repeated keys; a record may not repeat one
    payload = {}
    for key, value in pairs:
        if key in payload:
            raise ValueError(f"repeated key {key!r}")
        payload[key] = value
    return payload


def _row_from_dict(payload) -> Row:
    if not isinstance(payload, dict):
        raise ValueError("record must be an object")
    if payload.keys() != _KEY_SET:
        raise ValueError(f"record keys must be exactly {_RECORD_KEYS}")
    ResultRecord(**payload)  # its checks, with their messages
    return Row(**payload)



def iter_rows(
    path: str, drop_torn_tail: bool = False, laws: int | None = None
) -> Iterator[Row]:
    """The log's records as Rows, in line order, with every check of
    ResultRecord; duplicate pairs and malformed lines are format errors
    naming the line, raised when the reader reaches it, after the rows of
    the lines before it, and so is a line that is not UTF-8, with the
    decoder's own message.  The log is read a block of whole lines at a
    time: a block whose every line is in the writer's form by one findall,
    checked column by column, and any other block line by line by
    json.loads; both give the same rows.  With drop_torn_tail, an
    unparsable final line without its newline (a write cut short by a
    killed run) is skipped.  A record naming a law id past ROW_BITS - 1 is
    an error too, and so, with laws, the size of the corpus the log should
    belong to, is one naming a higher id."""
    return itertools.chain.from_iterable(map(_rows, _scan(path, drop_torn_tail, laws, None)))


def _rows(columns: tuple) -> Iterator[Row]:
    # Row(...) would go through namedtuple's __new__, written in Python
    return map(tuple.__new__, itertools.repeat(Row), zip(*columns))


# what the second pass of propagate_log does with each line, as its first
# pass notes them in flags: skip it (_BLANK), drop it when closure derives its
# pair (_UNSOLVED), and copy it as it stands (_SAME: exactly as _record_line
# writes it) or else render its record again
_SAME, _UNSOLVED, _BLANK = 1, 2, 4
_STATUS_FLAGS = {PROVEN: 0, REFUTED: 0, UNSOLVED: _UNSOLVED}


def _scan(
    path: str, drop_torn_tail: bool, laws: int | None, forms: bytearray | None
) -> Iterator[tuple]:
    """iter_rows' generator, yielding the rows as columns, a tuple of seven
    sequences (lhs, rhs, status, method, stage, seconds, witness), for each
    block of lines _columns reads and each line of any other block; with
    forms it also appends the flags of each line read.  A block is
    _BLOCK_CHARS characters and the rest of its last line.  A block
    _columns leaves is read line by line from its first, each line by
    json.loads and _row_from_dict."""
    # the pairs read so far: one int bitset of rhs ids per lhs, each id at
    # most limit, so no bitset grows past ROW_BITS bits
    seen: dict[int, int] = {}
    limit = ROW_BITS - 1 if laws is None else min(laws, ROW_BITS - 1)
    ints, methods, witnesses = _Ints(), _Strings(True), _Strings(False)
    lineno = 0
    # a byte that is not UTF-8 is read as a lone surrogate, and decoding its
    # line strictly again raises the decoder's error, a ValueError, for that
    # line (any line: json.loads would read the surrogate in a string)
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        while block := handle.read(_BLOCK_CHARS):
            if not block.endswith("\n"):
                block += handle.readline()
            columns = _columns(block, ints, methods, witnesses, seen, limit, forms)
            if columns is not None:
                lineno += len(columns[0])
                yield columns
                continue
            for raw in _LINES.findall(block):
                lineno += 1
                try:
                    if not raw.isascii():
                        raw.encode("utf-8", "surrogateescape").decode("utf-8")
                    line = raw.strip()
                    if not line:
                        if forms is not None:
                            forms.append(_BLANK)
                        continue
                    # json.loads raises a JSONDecodeError, _unique_keys a
                    # ValueError, int conversion a ValueError past its digit
                    # limit, and arrays nested past the recursion limit a
                    # RecursionError
                    try:
                        payload = json.loads(line, object_pairs_hook=_unique_keys)
                    except (ValueError, RecursionError) as err:
                        if drop_torn_tail and not raw.endswith("\n"):
                            return
                        raise ValueError(f"bad record: {err}") from None
                    row = _row_from_dict(payload)
                except ValueError as err:
                    raise ValueError(f"{path}:{lineno}: {err}") from None
                lhs, rhs = row[0], row[1]
                if lhs > limit or rhs > limit:
                    law = max(lhs, rhs)
                    bound = (
                        f"the corpus has {laws} laws" if laws is not None and law > laws
                        else f"law ids run to {ROW_BITS - 1}"
                    )
                    raise ValueError(
                        f"{path}:{lineno}: pair {(lhs, rhs)} names law {law}, but {bound}"
                    )
                bits = seen.get(lhs, 0)
                if bits >> rhs & 1:
                    raise ValueError(
                        f"{path}:{lineno}: duplicate record for pair {(lhs, rhs)} "
                        f"(first at line {_first_line(path, (lhs, rhs))})"
                    )
                seen[lhs] = bits | 1 << rhs
                if forms is not None:
                    form = _SAME if raw == _record_line(row) else 0
                    forms.append(form | _STATUS_FLAGS[row[2]])
                yield tuple(zip(row))  # a column of one row per field


def _columns(
    block: str, ints: _Ints, methods: _Strings, witnesses: _Strings,
    seen: dict[int, int], limit: int, forms: bytearray | None,
) -> tuple | None:
    """The block's rows as seven columns, when every line of it is in the
    writer's form (one _BLOCK_ROW match per newline, the block ending in
    one) and passes every check _scan makes over the whole block: lhs
    differs from rhs, ids are at most limit, seconds are finite, and no
    pair is in seen or twice in the block.  Only then do the block's pairs
    join seen and, with forms, its lines' flags join forms.  None when a
    line or a check fails or a conversion raises, as an id past int's digit
    limit does; _scan then reads the block line by line."""
    found = _BLOCK_ROW.findall(block)
    if len(found) != block.count("\n") or not block.endswith("\n"):
        return None
    (lhs_texts, rhs_texts, status, method_texts, stage_texts, second_texts,
     witness_texts) = zip(*found)
    # ids have no sign or leading zero, so equal ids are equal texts
    if any(map(eq, lhs_texts, rhs_texts)):
        return None
    try:
        lhs = list(map(ints.__getitem__, lhs_texts))
        rhs = list(map(ints.__getitem__, rhs_texts))
    except ValueError:
        return None
    seconds = list(map(float, second_texts))
    if max(lhs) > limit or max(rhs) > limit or math.inf in seconds:
        return None
    # seen's bitset of each lhs the block names with the block's pairs
    # added, merged into seen once every pair is fresh
    fresh: dict[int, int] = {}
    for left, right in zip(lhs, rhs):
        bits = fresh.get(left) or seen.get(left, 0)
        if bits >> right & 1:
            return None
        fresh[left] = bits | 1 << right
    seen.update(fresh)
    witness = list(map(witnesses.__getitem__, witness_texts))
    if forms is not None:
        # _BLOCK_ROW fixes every field's text but seconds' and an escaped
        # witness's, and only a witness holds a backslash
        same = list(map(eq, map(repr, seconds), second_texts))
        if "\\" in block:
            for i, text in enumerate(witness_texts):
                if "\\" in text and encode_basestring_ascii(witness[i]) != text:
                    same[i] = False
        forms.extend(map(or_, same, map(_STATUS_FLAGS.__getitem__, status)))
    return (
        lhs, rhs, status, list(map(methods.__getitem__, method_texts)),
        list(map(ints.__getitem__, stage_texts)), seconds, witness,
    )


def _record_of(line: str) -> Row:
    """The record of a line that iter_rows has read, as a Row."""
    return _row_from_dict(json.loads(line, object_pairs_hook=_unique_keys))


def _first_line(path: str, pair: tuple[int, int]) -> int | None:
    """The number of the first line holding pair's record."""
    # the lines up to the duplicate decode; a later one may not
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, raw in enumerate(handle, 1):
            if not raw.isspace() and _record_of(raw)[:2] == pair:
                return lineno
    return None


def _fold(blocks, codes: array | None = None) -> StatusMap:
    """The decided pairs' statuses in the blocks' columns, keyed for
    closure.propagate: one entry per (status, method), in order of first
    appearance, each pair setting its rhs bit in its entry's row bitset of
    its lhs.  With codes, the code lhs * ROW_BITS + rhs of each unsolved
    line's pair is appended to it, in line order."""
    rows: dict[tuple[str, str], dict[int, int]] = {}
    for lhs, rhs, status, method, *_ in blocks:
        for left, right, key in zip(lhs, rhs, zip(status, method)):
            if key[0] == UNSOLVED:
                if codes is not None:
                    codes.append(left * ROW_BITS + right)
                continue
            row = rows.get(key)
            if row is None:
                row = rows[key] = {}
            row[left] = row.get(left, 0) | 1 << right
    return StatusMap((key, (StatusEntry(*key), row)) for key, row in rows.items())


def load_results(
    path: str, drop_torn_tail: bool = False, laws: int | None = None, keep_records: bool = True
) -> tuple[StatusMap, list[ResultRecord]]:
    """The log read as iter_rows reads it, with its checks: its status map,
    which carries decided pairs only, keyed for closure.propagate, and its
    records in line order (an empty list without keep_records).  The status
    map is a closure.StatusMap, one row bitset per law for each distinct
    (status, method), folded by _fold from each block's columns as they are
    read, so it holds no dict entry per pair; the records share one copy of
    each status and method string."""
    blocks = _scan(path, drop_torn_tail, laws, None)
    records: list[ResultRecord] = []
    if keep_records:
        share = {}.setdefault

        def keeping(blocks):
            for columns in blocks:
                lhs, rhs, status, method, *rest = columns
                records.extend(map(
                    ResultRecord, lhs, rhs, map(share, status, status), map(share, method, method),
                    *rest,
                ))
                yield columns

        blocks = keeping(blocks)
    return _fold(blocks), records


def propagate_log(path: str) -> int:
    """Close the log's statuses under the implication rules and add the derived
    records (method closure:R1|R2|R3, stage 0, no witness); returns how many
    new pairs were decided.  A pair that was unsolved directly but is decided
    by closure gets its unsolved record replaced.  A log closure adds nothing
    to is not rewritten.

    The log is read twice and never held.  The first pass reads it a block
    at a time, as iter_rows does, and folds each block's columns into the
    status map, builds no row per line and notes, per line, whether it is
    blank, whether it is unsolved, and whether it is exactly _record_line of
    its record; an unsolved line's pair code goes to a flat array.  The
    second streams the kept lines to the rewrite, an unsolved line's pair
    read from that array: a line noted so as it stands, any other rendered
    by _record_line (a line can hold the writer's fields and still differ
    from it, as seconds 0.50 or a witness escaping "/" do).
    Derived records differ only in their pair and rule, so each derived line
    is its pair followed by the rest of one line that _record_line renders
    per rule, in (lhs, rhs) order as the closed map's rule bitsets give
    them."""
    forms, codes = bytearray(), array("q")
    status_map = _fold(_scan(path, False, None, forms), codes)
    closed = propagate(status_map)
    added = len(closed) - len(status_map)
    if not added:
        return 0  # leave the log, its inode and its mtime as they are

    # an unsolved pair is absent from status_map, so closure decides it only
    # by deriving it
    def kept_lines():
        open_pairs = map(divmod, codes, itertools.repeat(ROW_BITS))
        with open(path, encoding="utf-8") as handle:
            for raw, form in zip(handle, forms):
                if form == _BLANK or form & _UNSOLVED and closed.derives(next(open_pairs)):
                    continue
                yield raw if form & _SAME else _record_line(_record_of(raw))

    def closure_lines():
        tails: dict[str, str] = {}  # by rule, which fixes the status
        for (lhs, rhs), entry in closed.derived():
            rule = entry.provenance
            tail = tails.get(rule)
            if tail is None:
                line = _record_line(Row(1, 2, entry.status, rule, CLOSURE_STAGE, 0.0, None))
                tail = tails[rule] = line.partition('"rhs": 2')[2]
            yield f'{{"lhs": {lhs}, "rhs": {rhs}{tail}'

    _write_log(path, itertools.chain(kept_lines(), closure_lines()))
    return added
