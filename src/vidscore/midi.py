"""Standard MIDI File writing and parsing (SMF type 1, PPQN 480).

The writer serializes a Score to one meta track carrying the per-section
tempo and time-signature changes plus one track per instrument layer, with
program changes resolved through an editable instrument map. Output bytes are
a pure function of (score, map): same inputs, same bytes.

The reader handles formats 0 and 1, running status, variable-length deltas
and unknown meta events (skipped), reporting the byte offset of any
truncation. It exists for seed melodies and round-trip verification.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Dict, List, Optional, Tuple, Union

from .composer import PPQN, Score
from .errors import (
    ConfigError,
    InvalidEventError,
    MalformedMidiError,
    MissingInstrumentError,
    UnsupportedFormatError,
)
from .files import read_json, typed

PERCUSSION_CHANNEL = 9

_META_TEMPO = 0x51
_META_TIME_SIG = 0x58
_META_TRACK_NAME = 0x03
_META_END_OF_TRACK = 0x2F
_CHANNEL_KINDS = {0x80: "note_off", 0x90: "note_on", 0xB0: "control", 0xC0: "program_change"}


class InstrumentMap:
    """Maps layer labels to GM1 programs; percussion routes to channel 9."""

    def __init__(self, mapping: Dict[str, Union[int, str]]):
        for label, value in mapping.items():
            try:
                if value != "percussion" and not 0 <= typed(value, int) <= 127:
                    raise ValueError(f"{value} is outside 0..127")
            except (TypeError, ValueError) as exc:
                raise InvalidEventError(f"bad program for {label!r}: {exc}") from exc
        self.mapping: Dict[str, Union[int, str]] = dict(mapping)

    @classmethod
    def from_file(cls, path: str) -> "InstrumentMap":
        return cls(read_json(path, ConfigError, "instrument map"))

    @classmethod
    def default(cls) -> "InstrumentMap":
        text = resources.files("vidscore").joinpath("data/instruments.json").read_text()
        return cls(json.loads(text))

    def is_percussion(self, label: str) -> bool:
        self._require(label)
        return self.mapping[label] == "percussion"

    def program(self, label: str) -> int:
        self._require(label)
        value = self.mapping[label]
        return 0 if value == "percussion" else value

    def _require(self, label: str) -> None:
        if label not in self.mapping:
            raise MissingInstrumentError(f"no instrument mapped for layer {label!r}")


# -- encoding -------------------------------------------------------------------

def _vlq(value: int) -> bytes:
    if value < 0:
        raise InvalidEventError(f"negative delta time {value}")
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def _meta(kind: int, payload: bytes) -> bytes:
    return bytes([0xFF, kind]) + _vlq(len(payload)) + payload


def tempo_meta_value(bpm: int) -> int:
    return round(60_000_000 / bpm)


# the 15 channels melodic layers take in order of first appearance
_MELODIC_CHANNELS = [channel for channel in range(16) if channel != PERCUSSION_CHANNEL]
_END_OF_TRACK = _meta(_META_END_OF_TRACK, b"")


def _track_chunk(messages: List[Tuple[int, bytes]], total: int) -> bytes:
    """An MTrk chunk of (tick, message) pairs in tick order, each behind its
    delta time, closed by an end-of-track at ``total`` or at the last message
    if that is later."""
    body = bytearray()
    cursor = 0
    for tick, message in messages:
        delta = tick - cursor
        if 0 <= delta < 0x80:  # one byte, as _vlq would encode it
            body.append(delta)
        else:
            body += _vlq(delta)
        body += message
        cursor = tick
    body += _vlq(max(total - cursor, 0))
    body += _END_OF_TRACK
    return b"MTrk" + len(body).to_bytes(4, "big") + body


def write_smf(score: Score, imap: InstrumentMap) -> bytes:
    """Serialize a Score to SMF type 1 bytes."""
    labels = score.layer_labels
    melodic = [label for label in labels if not imap.is_percussion(label)]
    if len(melodic) > len(_MELODIC_CHANNELS):
        raise InvalidEventError("more melodic layers than MIDI channels")
    channels = dict.fromkeys(labels, PERCUSSION_CHANNEL)
    channels.update(zip(melodic, _MELODIC_CHANNELS))
    total = score.total_ticks

    # track 0: tempo and meter at each section start
    metas = [(tick, _meta(_META_TEMPO, tempo_meta_value(bpm).to_bytes(3, "big")))
             for tick, bpm in score.tempo_map]
    metas += [(tick, _meta(_META_TIME_SIG, bytes([n, {2: 1, 4: 2, 8: 3}[d], 24, 8])))
              for tick, (n, d) in score.time_signature_map]
    metas.sort(key=lambda m: m[0])  # stable, so a tempo stays ahead of a meter at its tick
    chunks = [_track_chunk(metas, total)]

    for label in labels:
        channel = channels[label]
        head = [(0, _meta(_META_TRACK_NAME, label.encode("utf-8")))]
        if channel != PERCUSSION_CHANNEL:
            head.append((0, bytes([0xC0 | channel, imap.program(label)])))

        # (tick, message); a note-off's status sorts before a note-on's
        notes: List[Tuple[int, bytes]] = []
        for section in score.sections:
            for ev in section.events.get(label, ()):
                start = section.start_tick + ev.start_tick
                if not (0 <= ev.pitch <= 127):
                    raise InvalidEventError(f"pitch {ev.pitch} out of range")
                if not (1 <= ev.velocity <= 127):
                    raise InvalidEventError(f"velocity {ev.velocity} out of range")
                if ev.duration_ticks < 1:
                    raise InvalidEventError(f"non-positive duration at {start}")
                notes.append((start, bytes([0x90 | channel, ev.pitch, ev.velocity])))
                notes.append((start + ev.duration_ticks, bytes([0x80 | channel, ev.pitch, 0])))
        notes.sort()
        chunks.append(_track_chunk(head + notes, total))

    header = (
        b"MThd"
        + (6).to_bytes(4, "big")
        + (1).to_bytes(2, "big")
        + len(chunks).to_bytes(2, "big")
        + PPQN.to_bytes(2, "big")
    )
    return header + b"".join(chunks)


# -- parsing --------------------------------------------------------------------

@dataclass(frozen=True)
class MidiEvent:
    tick: int
    kind: str  # note_on | note_off | program_change | tempo | time_signature |
    #            track_name | end_of_track | control | other
    channel: int = 0
    data1: int = 0
    data2: int = 0
    data: bytes = b""


@dataclass(frozen=True)
class MidiNote:
    tick: int
    duration: int
    pitch: int
    velocity: int
    channel: int


@dataclass
class MidiTrack:
    index: int
    events: List[MidiEvent] = field(default_factory=list)

    @property
    def end_tick(self) -> int:
        return self.events[-1].tick if self.events else 0


@dataclass
class MidiDocument:
    format: int
    ppqn: int
    tracks: List[MidiTrack]

    def track_notes(self, track: MidiTrack) -> List[MidiNote]:
        """Pair note-ons with their offs (FIFO per channel and pitch)."""
        pending: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        notes: List[MidiNote] = []
        for ev in track.events:
            if ev.kind == "note_on" and ev.data2 > 0:
                pending.setdefault((ev.channel, ev.data1), []).append((ev.tick, ev.data2))
            elif ev.kind == "note_off" or (ev.kind == "note_on" and ev.data2 == 0):
                queue = pending.get((ev.channel, ev.data1))
                if queue:
                    start, velocity = queue.pop(0)
                    notes.append(
                        MidiNote(start, max(ev.tick - start, 0), ev.data1, velocity, ev.channel)
                    )
        end = track.end_tick
        for (channel, pitch), queue in pending.items():
            for start, velocity in queue:  # unterminated notes close at track end
                notes.append(MidiNote(start, max(end - start, 0), pitch, velocity, channel))
        notes.sort(key=lambda n: (n.tick, n.pitch))
        return notes


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def need(self, count: int) -> None:
        if self.pos + count > len(self.data):
            raise MalformedMidiError("truncated chunk", offset=self.pos)

    def bytes(self, count: int) -> bytes:
        self.need(count)
        out = self.data[self.pos : self.pos + count]
        self.pos += count
        return out

    def u8(self) -> int:
        return self.bytes(1)[0]

    def peek(self) -> int:
        self.need(1)
        return self.data[self.pos]

    def uint(self, count: int) -> int:
        return int.from_bytes(self.bytes(count), "big")

    def vlq(self) -> int:
        value = 0
        for _ in range(4):
            byte = self.u8()
            value = (value << 7) | (byte & 0x7F)
            if not byte & 0x80:
                return value
        raise MalformedMidiError("variable-length number too long", offset=self.pos)


def read_smf(data: bytes) -> MidiDocument:
    reader = _Reader(data)
    if reader.bytes(4) != b"MThd":
        raise MalformedMidiError("missing MThd header", offset=0)
    header_len = reader.uint(4)
    if header_len < 6:
        raise MalformedMidiError("short MThd header", offset=reader.pos)
    fmt = reader.uint(2)
    n_tracks = reader.uint(2)
    division = reader.uint(2)
    reader.bytes(header_len - 6)
    if fmt not in (0, 1):
        raise UnsupportedFormatError(f"SMF format {fmt} not supported")
    if division & 0x8000:
        raise UnsupportedFormatError("SMPTE time division not supported")
    if division == 0:
        raise MalformedMidiError("zero ticks per quarter", offset=8)

    tracks: List[MidiTrack] = []
    for index in range(n_tracks):
        if reader.pos + 8 > len(data):
            raise MalformedMidiError(
                f"header declares {n_tracks} tracks but only {index} present",
                offset=reader.pos,
            )
        if reader.bytes(4) != b"MTrk":
            raise MalformedMidiError("expected MTrk chunk", offset=reader.pos - 4)
        length = reader.uint(4)
        end = reader.pos + length
        if end > len(data):
            raise MalformedMidiError("truncated track chunk", offset=reader.pos)
        tracks.append(_read_track(reader, index, end))
        reader.pos = end
    return MidiDocument(format=fmt, ppqn=division, tracks=tracks)


def _read_track(reader: _Reader, index: int, end: int) -> MidiTrack:
    track = MidiTrack(index=index)
    tick = 0
    running: Optional[int] = None
    while reader.pos < end:
        tick += reader.vlq()
        status = reader.peek()
        if status < 0x80:
            if running is None:
                raise MalformedMidiError("data byte without running status", offset=reader.pos)
            status = running
        else:
            reader.u8()
            if status < 0xF0:
                running = status

        if status == 0xFF:
            kind = reader.u8()
            length = reader.vlq()
            payload = reader.bytes(length)
            track.events.append(_meta_event(tick, kind, payload))
            running = None  # meta events cancel running status in files
            if kind == _META_END_OF_TRACK:
                break
        elif status in (0xF0, 0xF7):  # sysex: skip payload
            length = reader.vlq()
            reader.bytes(length)
            running = None
        else:
            high = status & 0xF0
            data1 = reader.u8()
            data2 = 0 if high in (0xC0, 0xD0) else reader.u8()  # one data byte
            kind = _CHANNEL_KINDS.get(high, "other")
            track.events.append(MidiEvent(tick, kind, status & 0x0F, data1, data2))
    return track


def _meta_event(tick: int, kind: int, payload: bytes) -> MidiEvent:
    if kind == _META_TEMPO and len(payload) == 3:
        return MidiEvent(tick, "tempo", data1=int.from_bytes(payload, "big"), data=payload)
    if kind == _META_TIME_SIG and len(payload) >= 2:
        return MidiEvent(tick, "time_signature", data1=payload[0], data2=payload[1], data=payload)
    if kind == _META_TRACK_NAME:
        return MidiEvent(tick, "track_name", data=payload)
    if kind == _META_END_OF_TRACK:
        return MidiEvent(tick, "end_of_track")
    return MidiEvent(tick, "other_meta", data1=kind, data=payload)
