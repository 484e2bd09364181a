"""Tests for the model config dialect: parsing, validation, serialization."""

from importlib import resources

import pytest

from fastblocks.config import (
    GraphSpec,
    LayerNode,
    load_model_config,
    parse_model_config,
    propagate_shapes,
    serialize_model_config,
)
from fastblocks.errors import ParseError, ValidationError


MINIMAL = "input 3 32 32\nconv cin=3 cout=16 k=3 s=1 p=1\n"


class TestParsing:
    def test_single_layer(self):
        graph = parse_model_config(MINIMAL, name="tiny")
        assert graph.name == "tiny"
        assert graph.input_shape == (3, 32, 32)
        assert len(graph.layers) == 1
        node = graph.layers[0]
        assert node.kind == "conv"
        assert node.attrs == {"cin": 3, "cout": 16, "k": 3, "s": 1, "p": 1}

    def test_optional_attrs_get_defaults(self):
        graph = parse_model_config("input 4 8 8\nconv cin=4 cout=4 k=1\nfasternet c=4 cp=2\n")
        assert graph.layers[0].attrs == {"cin": 4, "cout": 4, "k": 1, "s": 1, "p": 0}
        assert graph.layers[1].attrs == {"c": 4, "cp": 2, "k": 3, "e": 2}

    def test_comments_and_blank_lines_skipped(self):
        text = "# header comment\n\ninput 2 4 4\n  # indented comment\nrelu  # trailing\n\n"
        graph = parse_model_config(text)
        assert [n.kind for n in graph.layers] == ["relu"]

    def test_layer_lines_carry_source_numbers(self):
        text = "# one\ninput 2 4 4\n\nrelu\nbn c=2\n"
        graph = parse_model_config(text)
        assert [n.line for n in graph.layers] == [4, 5]

    @pytest.mark.parametrize(
        "text, lineno, fragment",
        [
            ("relu\n", 1, "input"),
            ("input 3 32\n", 1, "3 integers"),
            ("input 3 32 32\ninput 3 32 32\n", 2, "duplicate input"),
            ("input 3 4 4\nwarp c=3\n", 2, "unknown layer kind"),
            ("input 3 4 4\nbn c=3 momentum=1\n", 2, "unknown attribute"),
            ("input 3 4 4\nbn c=3 c=3\n", 2, "duplicate attribute"),
            ("input 3 4 4\nconv cin=3 cout=4\n", 2, "missing required"),
            ("input 3 4 4\nbn c=three\n", 2, "integer"),
            ("input 3 4 4\nbn c3\n", 2, "key=value"),
            ("input 0 4 4\nrelu\n", 1, ">= 1"),
            ("", 1, "no 'input' header"),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, text, lineno, fragment):
        with pytest.raises(ParseError) as err:
            parse_model_config(text)
        assert err.value.line == lineno
        assert fragment in str(err.value)

    def test_shape_violations_are_validation_errors(self):
        # syntactically fine, structurally wrong
        with pytest.raises(ValidationError, match="line 2"):
            parse_model_config("input 4 4 4\npconv c=4 cp=9\n")
        with pytest.raises(ValidationError, match="cin=5"):
            parse_model_config("input 4 4 4\nconv cin=5 cout=4 k=1\n")
        with pytest.raises(ValidationError, match="not a positive integer"):
            parse_model_config("input 4 5 5\nconv cin=4 cout=4 k=2 s=2\n")
        with pytest.raises(ValidationError, match="line 2"):
            parse_model_config("input 3 4 4\npwconv cin=3 cout=0\n")


class TestSerialization:
    def test_round_trip_is_identity(self):
        text = """input 3 16 16
conv cin=3 cout=8 k=3 s=1 p=1
bn c=8
relu
residual_begin
fasternet c=8 cp=2
residual_end
nam_channel c=8
gap_head classes=2
"""
        graph = parse_model_config(text, name="rt")
        once = serialize_model_config(graph)
        assert parse_model_config(once, name="rt") == graph
        assert serialize_model_config(parse_model_config(once, name="rt")) == once

    def test_line_numbers_do_not_affect_equality(self):
        assert LayerNode("relu", {}, line=3) == LayerNode("relu", {}, line=99)
        assert LayerNode("bn", {"c": 2}) != LayerNode("bn", {"c": 3})

    def test_serialized_form_is_canonical(self):
        graph = parse_model_config("input 1 4 4\n\n# c\nconv cin=1 cout=1 k=1\n")
        assert serialize_model_config(graph) == "input 1 4 4\nconv cin=1 cout=1 k=1 s=1 p=0\n"

    def test_every_bundled_config_round_trips(self):
        configs = resources.files("fastblocks").joinpath("configs")
        names = sorted(p.name for p in configs.iterdir() if p.name.endswith(".cfg"))
        assert len(names) >= 5
        for fname in names:
            text = configs.joinpath(fname).read_text()
            graph = parse_model_config(text, name=fname)
            assert parse_model_config(serialize_model_config(graph), name=fname) == graph


class TestShapePropagation:
    def test_shapes_through_mixed_graph(self):
        text = """input 3 16 16
conv cin=3 cout=8 k=3 s=1 p=1
conv cin=8 cout=16 k=2 s=2
fasternet c=16 cp=4
nam_spatial c=16 h=8 w=8
gap_head classes=5
"""
        graph = parse_model_config(text)
        shapes = propagate_shapes(graph)
        assert shapes == [(8, 16, 16), (16, 8, 8), (16, 8, 8), (16, 8, 8), (5, 1, 1)]

    def test_residual_markers_keep_shape(self):
        graph = parse_model_config("input 2 4 4\nresidual_begin\nrelu\nresidual_end\n")
        assert propagate_shapes(graph) == [(2, 4, 4)] * 3

    def test_unbalanced_residual_rejected(self):
        with pytest.raises(ValidationError, match="without matching"):
            parse_model_config("input 2 4 4\nresidual_begin\nrelu\n")
        with pytest.raises(ValidationError, match="without matching"):
            parse_model_config("input 2 4 4\nrelu\nresidual_end\n")

    def test_residual_branch_must_preserve_shape(self):
        text = "input 2 4 4\nresidual_begin\nconv cin=2 cout=3 k=1\nresidual_end\n"
        with pytest.raises(ValidationError, match="join"):
            parse_model_config(text)

    def test_nam_spatial_dims_checked(self):
        with pytest.raises(ValidationError, match="incoming map"):
            parse_model_config("input 2 4 4\nnam_spatial c=2 h=3 w=3\n")

    def test_channel_continuity_checked(self):
        with pytest.raises(ValidationError, match="incoming channels"):
            parse_model_config("input 2 4 4\nbn c=3\n")

    def test_override_input_shape(self):
        graph = parse_model_config("input 2 4 4\nrelu\n")
        assert propagate_shapes(graph, (2, 6, 6)) == [(2, 6, 6)]
        with pytest.raises(ValidationError):
            propagate_shapes(graph, (0, 6, 6))


class TestLoading:
    def test_file_stem_names_the_graph(self, tmp_path):
        path = tmp_path / "my-net.cfg"
        path.write_text(MINIMAL)
        graph = load_model_config(path)
        assert graph.name == "my-net"
        assert load_model_config(path, name="other").name == "other"

    def test_bundled_configs_parse_and_analyze(self):
        from fastblocks.complexity import analyze_graph

        configs = resources.files("fastblocks").joinpath("configs")
        for entry in configs.iterdir():
            if not entry.name.endswith(".cfg"):
                continue
            graph = parse_model_config(entry.read_text(), name=entry.name)
            report = analyze_graph(graph)
            assert report.total_params > 0
            assert report.total_flops > 0
