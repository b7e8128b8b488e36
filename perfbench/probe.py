"""Set-up probe: run in a fresh interpreter, it imports vidscore, loads every
mood preset and builds the default instrument map, then prints the
system-wide monotonic clock so the parent can subtract its spawn time.

    python3 perfbench/probe.py SRC
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

import vidscore.pipeline  # noqa: E402,F401
from vidscore.midi import InstrumentMap  # noqa: E402
from vidscore.moods import list_moods, load_mood  # noqa: E402

for name in list_moods():
    load_mood(name)
InstrumentMap.default()
print(time.monotonic())
