import ast
import pathlib

import pytest

import vidscore
from vidscore.files import typed

SRC = pathlib.Path(vidscore.__file__).parent

# the only direct file access outside files.py: the streaming raw-frame
# reader and the stem WAV reader
ALLOWED = {
    ("frames.py", "_open_raw_stream.read", "open(path, 'rb')"),
    ("loops.py", "read_wav", "wave.open(path, 'rb')"),
}


def direct_file_calls(path):
    """(module, dotted enclosing function, call text) for each open(),
    wave.open() and os.replace() call in one source file."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = scope + [node.name]
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                callee = "open"
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                callee = f"{func.value.id}.{func.attr}"
            else:
                callee = None
            if callee in ("open", "wave.open", "os.replace"):
                found.append((path.name, ".".join(scope), ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), [])
    return found


def test_file_access_goes_through_files_module():
    calls = [
        call
        for path in sorted(SRC.glob("*.py"))
        if path.name != "files.py"
        for call in direct_file_calls(path)
    ]
    assert sorted(calls) == sorted(ALLOWED)


def test_guard_sees_a_hand_rolled_read(tmp_path):
    module = tmp_path / "stage.py"
    module.write_text(
        "import os\n"
        "def load(path):\n"
        "    with open(path) as fh:\n"
        "        return fh.read()\n"
        "def save(tmp, path):\n"
        "    os.replace(tmp, path)\n"
    )
    assert direct_file_calls(module) == [
        ("stage.py", "load", "open(path)"),
        ("stage.py", "save", "os.replace(tmp, path)"),
    ]


def test_a_wrongly_typed_value_is_quoted_short():
    with pytest.raises(TypeError) as caught:
        typed({str(i): i for i in range(100000)}, list)
    assert str(caught.value).startswith("expected a list, got {'0': 0, ")
    assert len(str(caught.value)) < 120
