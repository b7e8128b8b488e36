import json
from importlib import resources

import pytest

from vidscore.errors import ConfigError
from vidscore.midi import tempo_meta_value
from vidscore.moods import list_moods, load_mood, supported_tempo


def inspire_doc():
    path = resources.files("vidscore").joinpath("data/moods/inspire.json")
    return json.loads(path.read_text(encoding="utf-8"))


def write_mood(tmp_path, doc):
    path = tmp_path / "mood.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_every_shipped_mood_loads():
    for name in list_moods():
        assert load_mood(name).name == name


class TestSupportedTempo:
    @pytest.mark.parametrize("bpm, ok", [
        (0, False), (3, False), (4, True), (120, True),
        (1000, True), (1001, False), (120_000_000, False),
    ])
    def test_bounds(self, bpm, ok):
        assert supported_tempo(bpm) is ok

    @pytest.mark.parametrize("bpm", [4, 1000])
    def test_supported_tempos_fit_the_smf_tempo_field(self, bpm):
        assert 0 < tempo_meta_value(bpm) < 1 << 24

    @pytest.mark.parametrize("bpm", [3, 120_000_000])
    def test_unsupported_tempos_do_not(self, bpm):
        assert not 0 < tempo_meta_value(bpm) < 1 << 24

    @pytest.mark.parametrize("tempo_range", [[2, 120], [0, 120], [60, 120_000_000], [60, 1001]])
    def test_mood_tempo_range_outside_is_rejected(self, tmp_path, tempo_range):
        doc = inspire_doc()
        doc["tempo_range"] = tempo_range
        with pytest.raises(ConfigError, match="tempo range"):
            load_mood(write_mood(tmp_path, doc))


# (field kind, edit to the inspire document); each must fail with ConfigError
WRONG_TYPES = {
    "tempo range float": lambda d: d.update(tempo_range=[60.5, 120]),
    "tempo range bool": lambda d: d.update(tempo_range=[True, 120]),
    "meter float": lambda d: d.update(time_signatures=[[4.0, 4]]),
    "meter not a pair": lambda d: d.update(time_signatures=[[4, 4, 4]]),
    "phrase length float": lambda d: d.update(phrase_length_bars=4.0),
    "layer range float": lambda d: d["layers_per_energy"].update(low=[1.0, 3]),
    "layer ranges not a map": lambda d: d.update(layers_per_energy=[[1, 3]]),
    "register float": lambda d: d["instrument_layers"][0].update(register=[33, 55.0]),
    "rank string": lambda d: d["instrument_layers"][0].update(activation_rank="1"),
    "progression degree float": lambda d: d["progressions"]["simple"][0].__setitem__(0, 1.0),
    "scale root list": lambda d: d["scale"].update(root=["C"]),
    "mood name number": lambda d: d.update(name=7),
    "layer label number": lambda d: d["instrument_layers"][0].update(label=5),
    "density list": lambda d: d["instrument_layers"][0].update(rhythm_density=["sparse"]),
}


@pytest.mark.parametrize("case", sorted(WRONG_TYPES))
def test_wrongly_typed_mood_field(tmp_path, case):
    doc = inspire_doc()
    WRONG_TYPES[case](doc)
    with pytest.raises(ConfigError):
        load_mood(write_mood(tmp_path, doc))


def test_empty_progression_is_rejected(tmp_path):
    doc = inspire_doc()
    doc["progressions"]["simple"].append([])
    with pytest.raises(ConfigError, match="progressions"):
        load_mood(write_mood(tmp_path, doc))


def test_repeated_layer_label_is_rejected(tmp_path):
    # composing keys each layer's events by label, so the later one would replace the earlier
    doc = inspire_doc()
    doc["instrument_layers"][1]["label"] = doc["instrument_layers"][0]["label"]
    with pytest.raises(ConfigError, match="repeats a layer label"):
        load_mood(write_mood(tmp_path, doc))
