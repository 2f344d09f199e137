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


# More ring shapes, recorded before the ring builders were merged into one:
# case -> (kind, source text, extra reduce arguments, builder call)
RING_CASES = {
    "ios-t5-empty": ("ios-t5", "n 0\n", [], lambda text: build_ios_t5(parse_graph(text))),
    "collapse-ios-empty": ("collapse-ios", "n 0\n", ["--target", "TT5", "--pivot", "a"],
                           lambda text: build_ios_collapse(parse_graph(text), TT5, 0, "out")),
    "collapse-iot-empty": ("collapse-iot", "n 0\n", ["--target", "TT5", "--pivot", "a"],
                           lambda text: build_iot_collapse(parse_graph(text), TT5, 0, "out")),
    "collapse-ios-in": ("collapse-ios", "n 3\na 0 1\na 2 1\n",
                        ["--target", "TT5", "--pivot", "e", "--direction", "in"],
                        lambda text: build_ios_collapse(parse_graph(text), TT5, 4, "in")),
    "collapse-iot-out": ("collapse-iot", "n 3\na 0 1\na 1 2\n",
                         ["--target", "TT5", "--pivot", "a", "--direction", "out"],
                         lambda text: build_iot_collapse(parse_graph(text), TT5, 0, "out")),
    "collapse-ios-pivot-b": ("collapse-ios", "n 3\na 1 0\na 1 2\n",
                             ["--target", "TT5", "--pivot", "b"],
                             lambda text: build_ios_collapse(parse_graph(text), TT5, 1, "out")),
    "collapse-iot-pivot-b": ("collapse-iot", "n 3\na 1 0\na 1 2\n",
                             ["--target", "TT5", "--pivot", "b"],
                             lambda text: build_iot_collapse(parse_graph(text), TT5, 1, "out")),
}

# case -> (instance text, map lines, reduce stdout with the output path blanked)
GOLDEN_RING_OUTPUT = {
    "collapse-ios-in": ("a10ff0d590ed6ae4", "a0cecadac04be960", "a8304f3469297132"),
    "collapse-ios-empty": ("10c10046706349d1", "b71e0a16cdd54bf3", "ded77c7fcc7ae637"),
    "collapse-ios-pivot-b": ("0363d34d70a45205", "ef3b061907e33dc3", "b0798ed992f6dee9"),
    "collapse-iot-empty": ("620a1074d0f09aa1", "96d94a1f158e1cd6", "eaa5106f344d2fba"),
    "collapse-iot-out": ("d871ce323010ae54", "937e9a29c926dbd7", "85da13452064ab81"),
    "collapse-iot-pivot-b": ("52606a39335c077b", "7a696ed57c1f7fcb", "53134b0962d6097c"),
    "ios-t5-empty": ("678002027738d341", "c793019ba7d99535", "f6ebc0f9030dc577"),
}


@pytest.mark.parametrize("case", sorted(RING_CASES))
def test_ring_output_pinned(case, tmp_path, capsys):
    kind, text, extra, build = RING_CASES[case]
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

    assert (_digest(instance), _digest(sidecar), _digest(stdout)) == GOLDEN_RING_OUTPUT[case]
