"""Byte-level pins of what every reduction kind writes.

For one fixed small source per kind, the digests below pin the instance text
(`serialize_graph`), the `.map` sidecar lines and the `injhom reduce` summary
printed on stdout.  They were recorded before the reduction bookkeeping was
reorganized and must not move: the sidecar and the instance files are an
interface.
"""
import hashlib

import pytest

from injhom.catalog import named_target
from injhom.cli import main
from injhom.digraph import parse_graph, serialize_graph
from injhom.reductions import (
    build_ios_collapse,
    build_ios_t4,
    build_ios_t5,
    build_iot_collapse,
    build_iot_t4,
    build_iot_t5,
    parse_undirected,
)

TT5 = named_target("TT5")

# kind -> (source text, extra reduce arguments, builder call)
CASES = {
    "ios-t4": ("n 4\na 0 1\na 1 2\na 2 0\na 2 3\n", [],
               lambda text: build_ios_t4(parse_undirected(text))),
    "iot-t4": ("n 4\na 0 1\na 1 2\na 2 3\n", [],
               lambda text: build_iot_t4(parse_undirected(text))),
    "ios-t5": ("n 4\na 0 1\na 1 2\na 2 0\na 3 0\n", [],
               lambda text: build_ios_t5(parse_graph(text))),
    "iot-t5": ("n 1\n", [],
               lambda text: build_iot_t5(parse_graph(text))),
    "collapse-ios": ("n 3\na 0 1\na 1 2\n", ["--target", "TT5", "--pivot", "a"],
                     lambda text: build_ios_collapse(parse_graph(text), TT5, 0, "out")),
    "collapse-iot": ("n 3\na 0 1\na 0 2\n",
                     ["--target", "TT5", "--pivot", "e", "--direction", "in"],
                     lambda text: build_iot_collapse(parse_graph(text), TT5, 4, "in")),
}

# kind -> (instance text, map lines, reduce stdout with the output path blanked)
GOLDEN_OUTPUT = {
    "collapse-ios": ("7c66252c33abafcf", "375c9b2d4cee1129", "4409b299ab2ff380"),
    "collapse-iot": ("6ea0e5a9d070d0a4", "c14e00fd37c9922f", "ef7788e36ef21267"),
    "ios-t4": ("d317b737e224b29e", "ac9a88e794918ba5", "f9921b8449f8a6ac"),
    "ios-t5": ("9bafa0cacd996dd9", "a91e4983a60b2a4b", "301678408e6123fa"),
    "iot-t4": ("786cfbc815142eb3", "c51e48a9b7fefb44", "d5b221f4df8e99e0"),
    "iot-t5": ("87e5e66a3f4a940b", "f05e648faf458d5f", "d22ece2902a06664"),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("kind", sorted(CASES))
def test_reduction_output_pinned(kind, tmp_path, capsys):
    text, extra, build = CASES[kind]
    ri = build(text)
    instance = serialize_graph(ri.graph)
    sidecar = "\n".join(ri.map_lines())

    src = tmp_path / "src.graph"
    src.write_text(text)
    out = tmp_path / "inst.graph"
    rc = main(["reduce", "--kind", kind, "--input", str(src), "--output", str(out)] + extra)
    assert rc == 0
    stdout = capsys.readouterr().out.replace(str(out), "OUT")
    assert out.read_text() == serialize_graph(ri.graph, header=f"reduction {kind}") + "\n"
    assert (tmp_path / "inst.graph.map").read_text() == sidecar + "\n"

    assert (_digest(instance), _digest(sidecar), _digest(stdout)) == GOLDEN_OUTPUT[kind]
