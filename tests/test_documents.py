"""Instance document parsing, validation anchors, and round trips."""

import json

import pytest
from hypothesis import given

from conftest import matrices
from stonekit.documents import (
    InstanceDocument,
    compile_document,
    document_for,
    dumps_document,
    load_document,
    parse_document,
)
from stonekit.errors import DocumentError, NotAFrame, NotContinuous
from stonekit.graph_pairs import EX_75, FiniteGraph, j_x
from stonekit.lattice import FinitePoset
from stonekit.multiplicity import EX_213, MultiplicityInclusion, to_inclusion_data
from stonekit.quasiorbit import check_C1, check_C2, check_JR, check_MI, check_MIf
from stonekit.spectrum import FiniteT0Space, PointMap
from stonekit.topo_models import BundleMap, FiniteGroupAction


def doc_text(kind, payload, name=None):
    raw = {"kind": kind, "payload": payload}
    if name is not None:
        raw["name"] = name
    return json.dumps(raw)


def poset_obj(points, covers=()):
    return {"points": points, "covers": [list(c) for c in covers]}


class TestParse:
    def test_name_is_optional_and_kept(self):
        doc = parse_document(
            doc_text("graph", {"vertices": 1, "edges": []}, name="loopless")
        )
        assert doc == InstanceDocument(
            kind="graph", payload={"vertices": 1, "edges": []}, name="loopless"
        )

    def test_json_syntax_errors_carry_line_and_column(self):
        with pytest.raises(DocumentError, match=r"line 2, column"):
            parse_document('{"kind": "graph",\n "payload": }')

    def test_nesting_past_the_recursion_limit_is_a_document_error(self):
        with pytest.raises(DocumentError, match="nested too deeply"):
            parse_document("[" * 100000 + "]" * 100000)

    def test_bytes_that_are_not_utf8_are_a_document_error(self, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + '{"kind": "graph"}'.encode("utf-16-le"))
        with pytest.raises(DocumentError, match="not UTF-8 text: invalid start byte at byte 0"):
            load_document(path)

    def test_top_level_must_be_an_object(self):
        with pytest.raises(DocumentError, match=r"\$: expected an object"):
            parse_document("[1, 2]")

    def test_unknown_kind_lists_the_choices(self):
        with pytest.raises(DocumentError, match=r"\$\.kind: unknown.*lattice"):
            parse_document(doc_text("spectra", {}))

    def test_missing_payload(self):
        with pytest.raises(DocumentError, match=r"\$: missing required field"):
            parse_document('{"kind": "graph"}')

    def test_name_must_be_a_string(self):
        with pytest.raises(DocumentError, match=r"\$\.name"):
            parse_document(
                '{"kind": "graph", "name": 3, "payload": {"vertices": 0, "edges": []}}'
            )

    def test_booleans_are_not_integers(self):
        with pytest.raises(DocumentError, match=r"vertices: expected an integer"):
            parse_document(doc_text("graph", {"vertices": True, "edges": []}))


class TestPosetPayload:
    def test_covers_are_transitively_closed_on_load(self):
        doc = parse_document(
            doc_text("lattice", {"order": poset_obj(3, [(0, 1), (1, 2)])})
        )
        data = compile_document(doc)
        assert data.lattice_a.leq(0, 2)

    def test_cyclic_covers_are_anchored_to_the_field(self):
        text = doc_text("lattice", {"order": poset_obj(2, [(0, 1), (1, 0)])})
        with pytest.raises(DocumentError, match=r"\$\.payload\.order: cover"):
            parse_document(text)

    def test_cover_indices_out_of_range(self):
        text = doc_text("lattice", {"order": poset_obj(2, [(0, 5)])})
        with pytest.raises(DocumentError, match=r"covers\[0\]\[1\]: index 5"):
            parse_document(text)

    def test_cover_pairs_have_exactly_two_entries(self):
        text = doc_text("lattice", {"order": {"points": 3, "covers": [[0, 1, 2]]}})
        with pytest.raises(DocumentError, match=r"expected 2 entries, got 3"):
            parse_document(text)


class TestReadOnce:
    """The schema check builds each poset; compiling reuses it."""

    @pytest.mark.parametrize(
        "kind, payload, posets",
        [
            ("lattice", {"order": poset_obj(3, [(0, 1), (1, 2)])}, 1),
            (
                "galois",
                {
                    "source": poset_obj(2, [(0, 1)]),
                    "target": poset_obj(2, [(0, 1)]),
                    "lower": [0, 1],
                },
                2,
            ),
            ("bundle", {"total": poset_obj(2), "base": poset_obj(1), "proj": [0, 0]}, 2),
            ("action", {"space": poset_obj(2), "generators": [[1, 0]]}, 1),
        ],
    )
    def test_one_poset_build_per_poset(self, monkeypatch, kind, payload, posets):
        built = []
        from_pairs = FinitePoset.from_pairs.__func__

        def counting(cls, n, pairs):
            built.append(n)
            return from_pairs(cls, n, pairs)

        monkeypatch.setattr(FinitePoset, "from_pairs", classmethod(counting))
        compile_document(parse_document(doc_text(kind, payload)))
        assert len(built) == posets

    def test_checked_values_stay_outside_equality(self):
        text = doc_text("lattice", {"order": poset_obj(2, [(0, 1)])})
        doc = parse_document(text)
        assert doc.checked["order"] == FinitePoset.chain(2)
        assert doc == InstanceDocument(kind="lattice", payload=doc.payload)

    def test_only_order_errors_read_as_cyclic_covers(self, monkeypatch):
        def broken(cls, n, pairs):
            raise RuntimeError("not an order problem")

        monkeypatch.setattr(FinitePoset, "from_pairs", classmethod(broken))
        with pytest.raises(RuntimeError, match="not an order problem"):
            parse_document(doc_text("lattice", {"order": poset_obj(1)}))

    def test_graph_edges_may_be_omitted(self):
        graph, jmask = compile_document(parse_document(doc_text("graph", {"vertices": 2})))
        assert graph.edges == () and jmask == 0


class TestKindSchemas:
    def test_galois_lower_length(self):
        payload = {
            "source": poset_obj(2, [(0, 1)]),
            "target": poset_obj(1),
            "lower": [0],
        }
        with pytest.raises(DocumentError, match=r"lower: expected 2 values"):
            parse_document(doc_text("galois", payload))

    def test_galois_lower_bound(self):
        payload = {
            "source": poset_obj(1),
            "target": poset_obj(2, [(0, 1)]),
            "lower": [2],
        }
        with pytest.raises(DocumentError, match=r"lower\[0\]: index 2"):
            parse_document(doc_text("galois", payload))

    def test_multiplicity_rejects_ragged_rows(self):
        with pytest.raises(DocumentError, match=r"matrix\[1\]: ragged"):
            parse_document(doc_text("multiplicity", {"matrix": [[1, 0], [1]]}))

    def test_multiplicity_rejects_empty_matrix(self):
        with pytest.raises(DocumentError, match=r"matrix: expected a non-empty"):
            parse_document(doc_text("multiplicity", {"matrix": []}))

    @pytest.mark.parametrize("shape", [(1, 13), (13, 1), (13, 13)])
    def test_multiplicity_past_the_cap_is_refused_by_shape(self, monkeypatch, shape):
        # an r x c matrix gives lattices of 2^r and 2^c summand sets
        monkeypatch.delenv("STONE_MAX_LATTICE", raising=False)
        rows, cols = shape
        matrix = [[1] * cols for _ in range(rows)]
        message = (
            rf"^\$\.payload\.matrix: 8192 summand sets \({rows} x {cols} matrix\) "
            r"exceeds the cap of 4096$"
        )
        with pytest.raises(DocumentError, match=message):
            parse_document(doc_text("multiplicity", {"matrix": matrix}))

    def test_multiplicity_cap_follows_the_environment(self, monkeypatch):
        text = doc_text("multiplicity", {"matrix": [[1, 1, 1]] * 2})
        monkeypatch.setenv("STONE_MAX_LATTICE", "8")
        assert parse_document(text).checked["matrix"] == ((1, 1, 1),) * 2
        monkeypatch.setenv("STONE_MAX_LATTICE", "7")
        with pytest.raises(DocumentError, match=r"^\$\.payload\.matrix: 8 summand sets"):
            parse_document(text)
        monkeypatch.delenv("STONE_MAX_LATTICE")
        parse_document(doc_text("multiplicity", {"matrix": [[1] * 12] * 12}))

    def test_multiplicity_dims_length_checks(self):
        payload = {"matrix": [[1, 1]], "b_dims": [1]}
        with pytest.raises(DocumentError, match=r"b_dims: expected 2 entries"):
            parse_document(doc_text("multiplicity", payload))

    @pytest.mark.parametrize("key", ["a_dims", "b_dims"])
    def test_multiplicity_dims_are_positive(self, key):
        payload = {"matrix": [[1, 0], [0, 1]], key: [0, 1]}
        with pytest.raises(
            DocumentError, match=rf"^\$\.payload\.{key}\[0\]: expected an integer >= 1, got 0$"
        ):
            parse_document(doc_text("multiplicity", payload))

    def test_bundle_proj_length(self):
        payload = {
            "total": poset_obj(2),
            "base": poset_obj(1),
            "proj": [0],
        }
        with pytest.raises(DocumentError, match=r"proj: expected 2 values"):
            parse_document(doc_text("bundle", payload))

    def test_action_generators_are_full_length(self):
        payload = {"space": poset_obj(2), "generators": [[0]]}
        with pytest.raises(DocumentError, match=r"generators\[0\]: expected 2"):
            parse_document(doc_text("action", payload))

    def test_graph_edge_bounds(self):
        payload = {"vertices": 2, "edges": [[0, 2]]}
        with pytest.raises(DocumentError, match=r"edges\[0\]\[1\]: index 2"):
            parse_document(doc_text("graph", payload))

    def test_graph_j_bounds(self):
        payload = {"vertices": 2, "edges": [], "j": [3]}
        with pytest.raises(DocumentError, match=r"j\[0\]: index 3"):
            parse_document(doc_text("graph", payload))


class TestCompile:
    def test_identity_lattice_document_satisfies_every_condition(self):
        text = doc_text(
            "lattice", {"order": poset_obj(4, [(0, 1), (0, 2), (1, 3), (2, 3)])}
        )
        data = compile_document(parse_document(text))
        assert check_JR(data) and check_C1(data)
        assert check_MIf(data) and check_MI(data) and check_C2(data)

    def test_non_distributive_lattice_document_refuses_at_compile(self):
        # M3: schema-valid, semantically not a frame
        covers = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]
        doc = parse_document(doc_text("lattice", {"order": poset_obj(5, covers)}))
        with pytest.raises(NotAFrame):
            compile_document(doc)

    def test_galois_document_matches_the_matrix_compilation(self):
        reference = to_inclusion_data(EX_213())
        text = dumps_document(document_for(reference))
        rebuilt = compile_document(parse_document(text))
        assert rebuilt.gc.lower.values == reference.gc.lower.values
        assert rebuilt.gc.upper.values == reference.gc.upper.values
        assert rebuilt.restricted == reference.restricted

    def test_action_continuity_failures_surface_at_compile(self):
        payload = {"space": poset_obj(2, [(0, 1)]), "generators": [[1, 0]]}
        doc = parse_document(doc_text("action", payload))
        with pytest.raises(NotContinuous):
            compile_document(doc)

    def test_graph_j_defaults_to_the_non_sink_set(self):
        doc = parse_document(doc_text("graph", {"vertices": 3, "edges": [[1, 0], [1, 2]]}))
        graph, jmask = compile_document(doc)
        assert jmask == j_x(graph) == 0b010

    def test_graph_explicit_j_wins(self):
        payload = {"vertices": 3, "edges": [[1, 0], [1, 2]], "j": [0, 2]}
        graph, jmask = compile_document(parse_document(doc_text("graph", payload)))
        assert jmask == 0b101


class TestRoundTrip:
    def matrix_doc(self, m):
        return parse_document(dumps_document(document_for(m)))

    @given(matrices(max_rows=3, max_cols=3, max_entry=2))
    def test_multiplicity_round_trip(self, m):
        rebuilt = compile_document(self.matrix_doc(m))
        assert rebuilt.mult == m.mult

    def test_bundle_round_trip(self):
        total = FiniteT0Space(FinitePoset.antichain(2))
        base = FiniteT0Space(FinitePoset.chain(2))
        bundle = BundleMap(total, base, PointMap(total, base, (1, 0)))
        rebuilt = compile_document(parse_document(dumps_document(document_for(bundle))))
        assert rebuilt.proj.values == (1, 0)
        assert rebuilt.total.points.below == total.points.below

    def test_action_round_trip(self):
        space = FiniteT0Space(FinitePoset.antichain(3))
        action = FiniteGroupAction(space, ((1, 2, 0),))
        rebuilt = compile_document(parse_document(dumps_document(document_for(action))))
        assert rebuilt.generators == ((1, 2, 0),)
        assert rebuilt.closure == action.closure

    def test_graph_round_trip_keeps_the_vertex_set(self):
        graph = EX_75()
        rebuilt, jmask = compile_document(
            parse_document(dumps_document(document_for((graph, 0b101))))
        )
        assert rebuilt.edges == graph.edges
        assert jmask == 0b101

    def test_named_documents_serialize_the_name(self):
        doc = document_for(MultiplicityInclusion(((1,),)), name="unit corner")
        assert parse_document(dumps_document(doc)).name == "unit corner"


class TestDumps:
    def test_canonical_bytes_are_stable(self):
        doc = document_for(MultiplicityInclusion(((1, 0), (1, 1))))
        assert dumps_document(doc) == dumps_document(json.loads(dumps_document(doc)))
        assert dumps_document(doc).endswith("\n")

    def test_load_document_reads_files(self, tmp_path):
        target = tmp_path / "ex75.json"
        target.write_text(dumps_document(document_for((EX_75(), 0b010))))
        graph, jmask = compile_document(load_document(target))
        assert isinstance(graph, FiniteGraph)
        assert jmask == 0b010

    def test_unserializable_models_are_refused(self):
        with pytest.raises(TypeError):
            document_for(object())
