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

from .composer import Score
from .errors import (
    ConfigError,
    InvalidEventError,
    MalformedMidiError,
    MissingInstrumentError,
    UnsupportedFormatError,
)

PERCUSSION_CHANNEL = 9
DEFAULT_TEMPO_US = 500000  # 120 BPM, the SMF default before any tempo meta

_META_TEMPO = 0x51
_META_TIME_SIG = 0x58
_META_TRACK_NAME = 0x03
_META_END_OF_TRACK = 0x2F


class InstrumentMap:
    """Maps layer labels to GM1 programs; percussion routes to channel 9."""

    def __init__(self, mapping: Dict[str, Union[int, str]]):
        self.mapping: Dict[str, Union[int, str]] = {}
        for label, value in mapping.items():
            if value == "percussion":
                self.mapping[label] = "percussion"
            else:
                try:
                    program = int(value)
                except (TypeError, ValueError) as exc:
                    raise InvalidEventError(
                        f"program {value!r} for {label!r} is not an integer"
                    ) from exc
                if not (0 <= program <= 127):
                    raise InvalidEventError(f"program {program} for {label!r} out of range")
                self.mapping[label] = program

    @classmethod
    def from_file(cls, path: str) -> "InstrumentMap":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError covers bad JSON and UTF-8
            raise ConfigError(f"cannot read instrument map {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"instrument map {path} is not a JSON object")
        return cls(doc)

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
        return 0 if value == "percussion" else int(value)

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


def _meta(delta: int, kind: int, payload: bytes) -> bytes:
    return _vlq(delta) + bytes([0xFF, kind]) + _vlq(len(payload)) + payload


def tempo_meta_value(bpm: int) -> int:
    return round(60_000_000 / bpm)


def _track_chunk(body: bytes) -> bytes:
    return b"MTrk" + len(body).to_bytes(4, "big") + body


def write_smf(score: Score, imap: InstrumentMap) -> bytes:
    """Serialize a Score to SMF type 1 bytes."""
    labels = score.layer_labels
    channels: Dict[str, int] = {}
    next_channel = 0
    for label in labels:
        if imap.is_percussion(label):
            channels[label] = PERCUSSION_CHANNEL
        else:
            if next_channel == PERCUSSION_CHANNEL:
                next_channel += 1
            if next_channel > 15:
                raise InvalidEventError("more melodic layers than MIDI channels")
            channels[label] = next_channel
            next_channel += 1

    total = score.total_ticks

    # track 0: tempo and meter at each section start
    metas: List[Tuple[int, int, bytes]] = []  # (tick, kind, payload)
    for tick, bpm in score.tempo_map:
        metas.append((tick, _META_TEMPO, tempo_meta_value(bpm).to_bytes(3, "big")))
    for tick, (n, d) in score.time_signature_map:
        metas.append((tick, _META_TIME_SIG, bytes([n, {2: 1, 4: 2, 8: 3}[d], 24, 8])))
    metas.sort(key=lambda m: (m[0], m[1]))
    body = bytearray()
    cursor = 0
    for tick, kind, payload in metas:
        body += _meta(tick - cursor, kind, payload)
        cursor = tick
    body += _meta(total - cursor, _META_END_OF_TRACK, b"")
    chunks = [_track_chunk(bytes(body))]

    for label in labels:
        channel = channels[label]
        body = bytearray()
        body += _meta(0, _META_TRACK_NAME, label.encode("utf-8"))
        if channel != PERCUSSION_CHANNEL:
            body += _vlq(0) + bytes([0xC0 | channel, imap.program(label)])

        # (tick, off_first, pitch, velocity); offs sort before ons at a tick
        moments: List[Tuple[int, int, int, int]] = []
        for section in score.sections:
            for ev in section.events.get(label, ()):
                if not (0 <= ev.pitch <= 127):
                    raise InvalidEventError(f"pitch {ev.pitch} out of range")
                if not (1 <= ev.velocity <= 127):
                    raise InvalidEventError(f"velocity {ev.velocity} out of range")
                if ev.duration_ticks < 1:
                    raise InvalidEventError(f"non-positive duration at {ev.start_tick}")
                moments.append((ev.start_tick, 1, ev.pitch, ev.velocity))
                moments.append((ev.start_tick + ev.duration_ticks, 0, ev.pitch, 0))
        moments.sort()
        cursor = 0
        for tick, is_on, pitch, velocity in moments:
            status = (0x90 if is_on else 0x80) | channel
            body += _vlq(tick - cursor) + bytes([status, pitch, velocity])
            cursor = tick
        body += _meta(max(total - cursor, 0), _META_END_OF_TRACK, b"")
        chunks.append(_track_chunk(bytes(body)))

    header = (
        b"MThd"
        + (6).to_bytes(4, "big")
        + (1).to_bytes(2, "big")
        + len(chunks).to_bytes(2, "big")
        + score.ppqn.to_bytes(2, "big")
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
    def name(self) -> str:
        for ev in self.events:
            if ev.kind == "track_name":
                return ev.data.decode("utf-8", "replace")
        return ""

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

    def notes(self) -> List[MidiNote]:
        out: List[MidiNote] = []
        for track in self.tracks:
            out.extend(self.track_notes(track))
        out.sort(key=lambda n: (n.tick, n.channel, n.pitch))
        return out

    def tempos(self) -> List[Tuple[int, int]]:
        """(tick, microseconds per quarter) across all tracks, tick-ordered."""
        out = []
        for track in self.tracks:
            for ev in track.events:
                if ev.kind == "tempo":
                    out.append((ev.tick, ev.data1))
        out.sort()
        return out

    def time_signatures(self) -> List[Tuple[int, Tuple[int, int]]]:
        out = []
        for track in self.tracks:
            for ev in track.events:
                if ev.kind == "time_signature":
                    out.append((ev.tick, (ev.data1, 1 << ev.data2)))
        out.sort()
        return out

    @property
    def total_ticks(self) -> int:
        return max((t.end_tick for t in self.tracks), default=0)

    def duration_s(self) -> float:
        """Integrate the tempo map over the document's tick span."""
        total_ticks = self.total_ticks
        tempos = self.tempos()
        if not tempos or tempos[0][0] > 0:
            tempos = [(0, DEFAULT_TEMPO_US)] + tempos
        seconds = 0.0
        for i, (tick, us) in enumerate(tempos):
            end = tempos[i + 1][0] if i + 1 < len(tempos) else total_ticks
            seconds += (end - tick) * us / (self.ppqn * 1_000_000.0)
        return seconds


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
            channel = status & 0x0F
            high = status & 0xF0
            if high in (0xC0, 0xD0):
                data1 = reader.u8()
                data2 = 0
            else:
                data1 = reader.u8()
                data2 = reader.u8()
            if high == 0x90:
                track.events.append(MidiEvent(tick, "note_on", channel, data1, data2))
            elif high == 0x80:
                track.events.append(MidiEvent(tick, "note_off", channel, data1, data2))
            elif high == 0xC0:
                track.events.append(MidiEvent(tick, "program_change", channel, data1))
            elif high == 0xB0:
                track.events.append(MidiEvent(tick, "control", channel, data1, data2))
            else:
                track.events.append(MidiEvent(tick, "other", channel, data1, data2))
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
