import random

import pytest

from vidscore.composer import NoteEvent, Score, SectionScore, compose_plan
from vidscore.errors import (
    ConfigError,
    InvalidEventError,
    MalformedMidiError,
    MissingInstrumentError,
    UnsupportedFormatError,
)
from vidscore.midi import (
    InstrumentMap,
    read_smf,
    tempo_meta_value,
    write_smf,
)
from vidscore.moods import load_mood

from conftest import random_valid_plan


def score_notes(score):
    """(label -> sorted (tick, dur, pitch, vel)) from the in-memory score."""
    out = {}
    for section in score.sections:
        for label, events in section.events.items():
            out.setdefault(label, [])
            out[label].extend(
                (ev.start_tick, ev.duration_ticks, ev.pitch, ev.velocity)
                for ev in events
            )
    return {label: sorted(v) for label, v in out.items() if v}


def document_notes(doc):
    """(track name -> sorted (tick, dur, pitch, vel)) from parsed bytes."""
    out = {}
    for track in doc.tracks[1:]:
        notes = doc.track_notes(track)
        if notes:
            out[track.name] = sorted(
                (n.tick, n.duration, n.pitch, n.velocity) for n in notes
            )
    return out


def empty_score():
    return Score(sections=(), tempo_map=(), time_signature_map=(),
                 mood="inspire", rng_seed=0)


def tiny_score(label="bass", pitch=40, velocity=80):
    events = {label: [NoteEvent(0, 480, pitch, velocity, label)]}
    return Score(
        sections=(SectionScore(0, 0, 960, events),),
        tempo_map=((0, 120),),
        time_signature_map=((0, (4, 4)),),
        mood="inspire",
        rng_seed=0,
    )


class TestWriteSmf:
    def test_tempo_meta_values(self):
        assert tempo_meta_value(120) == 500000
        assert tempo_meta_value(96) == 625000
        rng = random.Random(1)
        for _ in range(50):
            bpm = rng.randint(40, 220)
            assert tempo_meta_value(bpm) == round(60_000_000 / bpm)

    def test_tempo_meta_at_every_section_start(self):
        rng = random.Random(31)
        plan = random_valid_plan(rng)
        score = compose_plan(plan, load_mood(plan.mood))
        doc = read_smf(write_smf(score, InstrumentMap.default()))
        expected = [(tick, tempo_meta_value(bpm)) for tick, bpm in score.tempo_map]
        assert doc.tempos() == expected
        assert doc.time_signatures() == list(score.time_signature_map)

    def test_empty_score_is_minimal_valid_file(self):
        data = write_smf(empty_score(), InstrumentMap.default())
        doc = read_smf(data)
        assert doc.format == 1
        assert len(doc.tracks) == 1  # just the meta track
        assert doc.notes() == []

    def test_missing_instrument(self):
        score = tiny_score(label="kazoo_lead")
        with pytest.raises(MissingInstrumentError):
            write_smf(score, InstrumentMap.default())

    def test_pitch_out_of_range(self):
        score = tiny_score(pitch=200)
        with pytest.raises(InvalidEventError):
            write_smf(score, InstrumentMap.default())

    def test_velocity_out_of_range(self):
        score = tiny_score(velocity=0)
        with pytest.raises(InvalidEventError):
            write_smf(score, InstrumentMap.default())

    def test_byte_determinism(self):
        rng = random.Random(55)
        plan = random_valid_plan(rng)
        score = compose_plan(plan, load_mood(plan.mood))
        imap = InstrumentMap.default()
        assert write_smf(score, imap) == write_smf(score, imap)

    def test_percussion_on_channel_nine(self):
        score = tiny_score(label="percussion", pitch=38)
        doc = read_smf(write_smf(score, InstrumentMap.default()))
        notes = doc.notes()
        assert notes and all(n.channel == 9 for n in notes)

    def test_melodic_channels_skip_nine_and_stay_unique(self):
        rng = random.Random(8)
        plan = random_valid_plan(rng, mood=load_mood("summit"))
        score = compose_plan(plan, load_mood("summit"))
        doc = read_smf(write_smf(score, InstrumentMap.default()))
        channels = {}
        for track in doc.tracks[1:]:
            for note in doc.track_notes(track):
                channels.setdefault(track.name, set()).add(note.channel)
        for label, chans in channels.items():
            assert len(chans) == 1
            if label == "percussion":
                assert chans == {9}
            else:
                assert 9 not in chans
        melodic = [next(iter(c)) for l, c in channels.items() if l != "percussion"]
        assert len(melodic) == len(set(melodic))


class TestRoundTrip:
    def test_read_write_reproduces_notes(self):
        rng = random.Random(77)
        imap = InstrumentMap.default()
        for _ in range(15):
            plan = random_valid_plan(rng)
            score = compose_plan(plan, load_mood(plan.mood))
            doc = read_smf(write_smf(score, imap))
            assert document_notes(doc) == score_notes(score)

    def test_decoded_duration_within_one_tick(self):
        rng = random.Random(78)
        imap = InstrumentMap.default()
        for _ in range(10):
            plan = random_valid_plan(rng)
            score = compose_plan(plan, load_mood(plan.mood))
            doc = read_smf(write_smf(score, imap))
            slowest_tick_s = 60.0 / (min(t for _, t in score.tempo_map) * 480)
            assert abs(doc.duration_s() - score.duration_s()) <= slowest_tick_s


def track_chunk(body):
    return b"MTrk" + len(body).to_bytes(4, "big") + body


def header(n_tracks, fmt=1, division=480):
    return (
        b"MThd" + (6).to_bytes(4, "big") + fmt.to_bytes(2, "big")
        + n_tracks.to_bytes(2, "big") + division.to_bytes(2, "big")
    )


class TestReadSmf:
    def test_running_status_equals_fully_stated(self):
        eot = b"\x00\xff\x2f\x00"
        running = track_chunk(
            b"\x00\x90\x3c\x64" + b"\x78\x3e\x64"
            + b"\x78\x80\x3c\x00" + b"\x78\x3e\x00" + eot
        )
        stated = track_chunk(
            b"\x00\x90\x3c\x64" + b"\x78\x90\x3e\x64"
            + b"\x78\x80\x3c\x00" + b"\x78\x80\x3e\x00" + eot
        )
        doc_a = read_smf(header(1, fmt=0) + running)
        doc_b = read_smf(header(1, fmt=0) + stated)
        assert doc_a.tracks[0].events == doc_b.tracks[0].events
        notes = doc_a.track_notes(doc_a.tracks[0])
        assert [(n.tick, n.duration, n.pitch) for n in notes] == [
            (0, 240, 60), (120, 240, 62),
        ]

    def test_track_count_mismatch(self):
        data = header(3) + track_chunk(b"\x00\xff\x2f\x00") * 2
        with pytest.raises(MalformedMidiError, match="3 tracks"):
            read_smf(data)

    def test_truncated_chunk_reports_offset(self):
        body = b"\x00\x90\x3c\x64"
        data = header(1) + b"MTrk" + (100).to_bytes(4, "big") + body
        with pytest.raises(MalformedMidiError) as err:
            read_smf(data)
        assert err.value.offset is not None

    def test_format_two_unsupported(self):
        data = header(1, fmt=2) + track_chunk(b"\x00\xff\x2f\x00")
        with pytest.raises(UnsupportedFormatError):
            read_smf(data)

    def test_smpte_division_unsupported(self):
        data = header(1, division=0xE250) + track_chunk(b"\x00\xff\x2f\x00")
        with pytest.raises(UnsupportedFormatError):
            read_smf(data)

    def test_not_midi_at_all(self):
        with pytest.raises(MalformedMidiError):
            read_smf(b"RIFF....WAVE")

    def test_unknown_meta_events_skipped(self):
        chunk = track_chunk(
            b"\x00\xff\x06\x05hello"  # marker meta
            + b"\x00\x90\x3c\x64" + b"\x60\x80\x3c\x00" + b"\x00\xff\x2f\x00"
        )
        doc = read_smf(header(1, fmt=0) + chunk)
        notes = doc.track_notes(doc.tracks[0])
        assert [(n.tick, n.pitch) for n in notes] == [(0, 60)]


def written_program_and_channel(label, imap):
    """(program change or None, note channel) of a one-layer file."""
    doc = read_smf(write_smf(tiny_score(label=label), imap))
    track = doc.tracks[1]
    programs = [ev.data1 for ev in track.events if ev.kind == "program_change"]
    return (programs[0] if programs else None, doc.track_notes(track)[0].channel)


class TestInstrumentMap:
    def test_piano_maps_to_acoustic_grand(self):
        assert written_program_and_channel("piano", InstrumentMap.default()) == (0, 0)

    def test_percussion_channel(self):
        program, channel = written_program_and_channel("percussion", InstrumentMap.default())
        assert channel == 9

    def test_unknown_label(self):
        with pytest.raises(MissingInstrumentError):
            InstrumentMap.default().program("kazoo_lead")

    def test_custom_map_file(self, tmp_path):
        path = tmp_path / "imap.json"
        path.write_text('{"solo": 56, "drums": "percussion"}')
        imap = InstrumentMap.from_file(str(path))
        assert written_program_and_channel("solo", imap) == (56, 0)
        assert written_program_and_channel("drums", imap)[1] == 9

    def test_program_out_of_range(self):
        with pytest.raises(InvalidEventError):
            InstrumentMap({"solo": 200})

    @pytest.mark.parametrize("text, error", [
        (None, ConfigError),  # no file at all
        ("{not json", ConfigError),
        ('["solo", 56]', ConfigError),
        ('"solo"', ConfigError),
        ('{"solo": "x"}', InvalidEventError),
        ('{"solo": null}', InvalidEventError),
    ])
    def test_bad_map_file(self, tmp_path, text, error):
        path = tmp_path / "imap.json"
        if text is not None:
            path.write_text(text)
        with pytest.raises(error):
            InstrumentMap.from_file(str(path))

    def test_default_covers_all_preset_layers(self):
        imap = InstrumentMap.default()
        for name in ("inspire", "ember", "drive", "bloom", "noir", "tide",
                     "summit", "clockwork"):
            for layer in load_mood(name).instrument_layers:
                imap.program(layer.label)  # raises if unmapped
