"""certain_answers with a precomputed universal solution (no re-chase)."""

from repro.logic.parser import parse_conjunction
from repro.logic.terms import Var
from repro.mapping import SchemaMapping, universal_solution
from repro.mapping.certain import certain_answers
from repro.relational import instance, relation, schema


SRC = schema(relation("Emp", "name", "dept"), relation("Dept", "dept", "head"))
TGT = schema(relation("Office", "name", "head", "room"))


def setting():
    mapping = SchemaMapping.parse(
        SRC, TGT, "Emp(n, d), Dept(d, h) -> exists m . Office(n, h, m)"
    )
    source = instance(
        SRC,
        {
            "Emp": [["e1", "d1"], ["e2", "d2"]],
            "Dept": [["d1", "h1"], ["d2", "h2"]],
        },
    )
    return mapping, source


class TestPrecomputedSolution:
    def test_matches_rechasing_path(self):
        mapping, source = setting()
        query = parse_conjunction("Office(n, h, m)")
        head = [Var("n"), Var("h")]
        solution = universal_solution(mapping, source)
        assert certain_answers(mapping, source, query, head) == certain_answers(
            mapping, source, query, head, solution=solution
        )

    def test_solution_reused_across_queries(self):
        mapping, source = setting()
        solution = universal_solution(mapping, source)
        for text, head in [
            ("Office(n, h, m)", [Var("n")]),
            ("Office(n, h, m)", [Var("h")]),
        ]:
            query = parse_conjunction(text)
            assert certain_answers(
                mapping, source, query, head, solution=solution
            ) == certain_answers(mapping, source, query, head)

    def test_executor_solution_is_acceptable(self):
        from repro import ExchangeEngine, ExchangeOptions

        mapping, source = setting()
        engine = ExchangeEngine.compile(mapping, options=ExchangeOptions(cache=2))
        solution = engine.exchange(source)
        query = parse_conjunction("Office(n, h, m)")
        head = [Var("n"), Var("h")]
        assert certain_answers(
            mapping, source, query, head, solution=solution
        ) == certain_answers(mapping, source, query, head)
