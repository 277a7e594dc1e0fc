"""Configuration and trace (de)serialization.

Configurations are read from a JSON document keyed by component names; ids
are assigned in file order, which fixes the total order on components.
Traces (format `monored-trace-2`) serialize the permissible sequence, each
step listing the charts it replaces with their children, and a canonical
final-state section; loading the input plus the trace replays to a
byte-identical final state.  Replay reads only each step's centre and
exceptional name, so `monored-trace-1` traces, which also list every chart
a step leaves untouched, replay the same way.

Each step is rendered by one `StepRenderer` and the document assembled by
`trace_document`.  The CLI passes the renderer to the engine as its step
observer, so each step is rendered as the engine makes it and nothing is
blown up twice; `trace_to_obj` renders a finished sequence by replaying
it, checking that the records replay and reproduce the final
configuration.  `replay_trace` (`monored replay`) re-runs a written trace.
"""

from __future__ import annotations

import hashlib
import json

from .core import Chart, Configuration, MarkedIdeal, Monomial, chart_name, max_order
from .errors import ValidationError
from .transform import blow_up_global

SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")
TRACE_FORMAT = "monored-trace-2"
READABLE_TRACE_FORMATS = ("monored-trace-1", TRACE_FORMAT)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def monomial_obj(registry, g: Monomial) -> dict:
    """A monomial as `{component name: exponent}`."""
    return {registry[c]: e for c, e in g.exps}


def component_names(registry, comps) -> list:
    """The names of a component set, in id order."""
    return [registry[c] for c in sorted(comps)]


# --- configuration input --------------------------------------------------

def _expect(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise ValidationError(f"{where}: {message}")


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def load_config(obj) -> Configuration:
    _expect(isinstance(obj, dict), "$", "configuration must be an object")
    components = obj.get("components")
    _expect(
        isinstance(components, list) and components, "components", "non-empty name list required"
    )
    _expect(
        all(isinstance(c, str) and c for c in components),
        "components",
        "names must be non-empty strings",
    )
    _expect(len(set(components)) == len(components), "components", "names must be unique")
    ids = {name: i for i, name in enumerate(components)}

    dim_p = obj.get("dim_p")
    _expect(_is_int(dim_p) and dim_p >= 0, "dim_p", "non-negative integer required")
    mark = obj.get("mark")
    _expect(_is_int(mark) and mark >= 1, "mark", "positive integer required")

    raw_charts = obj.get("charts")
    _expect(isinstance(raw_charts, list) and raw_charts, "charts", "non-empty chart list required")
    charts = []
    seen_names = set()
    for i, raw in enumerate(raw_charts):
        where = f"charts[{i}]"
        _expect(isinstance(raw, dict), where, "chart must be an object")
        name = raw.get("name")
        _expect(isinstance(name, str) and name, f"{where}.name", "non-empty string required")
        _expect(name not in seen_names, f"{where}.name", f"duplicate chart name {name!r}")
        seen_names.add(name)

        def resolve(names, field):
            out = []
            _expect(isinstance(names, list), field, "name list required")
            for n in names:
                _expect(isinstance(n, str) and n in ids, field, f"unknown component {n!r}")
                out.append(ids[n])
            return out

        e_comps = resolve(raw.get("e_components", []), f"{where}.e_components")
        p_comps = resolve(raw.get("p_components", []), f"{where}.p_components")
        n_vars = raw.get("n_vars", [])
        _expect(
            isinstance(n_vars, list) and all(isinstance(v, str) for v in n_vars),
            f"{where}.n_vars",
            "list of labels required",
        )
        _expect(
            not set(n_vars) & set(components),
            f"{where}.n_vars",
            "labels must not collide with component names",
        )
        gens_raw = raw.get("generators")
        _expect(
            isinstance(gens_raw, list) and gens_raw,
            f"{where}.generators",
            "non-empty generator list required",
        )
        gens = []
        for j, graw in enumerate(gens_raw):
            gwhere = f"{where}.generators[{j}]"
            _expect(isinstance(graw, dict), gwhere, "exponent map required")
            exps = {}
            for n, e in graw.items():
                _expect(n in ids, gwhere, f"unknown component {n!r}")
                _expect(_is_int(e) and e >= 0, gwhere, f"bad exponent for {n!r}")
                exps[ids[n]] = e
            gens.append(Monomial.of(exps))
        try:
            chart = Chart(
                label=name,
                e_components=tuple(sorted(set(e_comps))),
                n_vars=frozenset(n_vars),
                p_components=frozenset(p_comps),
                ideal=MarkedIdeal.of(gens, mark),
            )
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from None
        charts.append(chart)
    return Configuration(tuple(components), tuple(charts), dim_p)


def read_json_file(path: str):
    """The JSON document in a UTF-8 file; an unreadable file is a validation error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from None


def load_config_file(path: str) -> Configuration:
    return load_config(read_json_file(path))


def _chart_fields(registry, chart: Chart) -> dict:
    """The fields a chart shares with its input-schema form, less its name."""
    return {
        "e_components": component_names(registry, chart.e_components),
        "n_vars": sorted(chart.n_vars),
        "p_components": component_names(registry, chart.p_components),
        "generators": [monomial_obj(registry, g) for g in chart.ideal.generators],
    }


def config_to_obj(cfg: Configuration) -> dict:
    """Input-schema view of a configuration (root charts only)."""
    return {
        "components": list(cfg.registry),
        "dim_p": cfg.dim_p,
        "mark": cfg.mark,
        "charts": [{"name": ch.label, **_chart_fields(cfg.registry, ch)} for ch in cfg.charts],
    }


def config_digest(cfg: Configuration) -> str:
    data = canonical_json(config_to_obj(cfg)).encode("utf-8")
    return "sha256:" + hashlib.sha256(data).hexdigest()


# --- rendering ------------------------------------------------------------

def render_ideal(cfg: Configuration, chart: Chart, exc_stage: dict[int, int]) -> str:
    """The chart's generators in display names.

    An exceptional component whose stage defined this chart shows as the
    component that defined it; below the root every name is barred.
    """
    defining = dict(chart.path)
    names: dict[int, str] = {}
    for comp in chart.ideal.component_support:
        shown = comp
        seen = set()  # records that do not match the chart can map in a cycle
        while exc_stage.get(shown) in defining and shown not in seen:
            seen.add(shown)
            shown = defining[exc_stage[shown]]
        name = cfg.registry[shown]
        names[comp] = "".join(c + "̄" for c in name) if chart.path else name
    rendered = []
    for g in chart.ideal.generators:
        factors = [names[c] if e == 1 else names[c] + str(e).translate(SUPERSCRIPTS) for c, e in g.exps]
        rendered.append("".join(factors) if factors else "1")
    return ", ".join(rendered)


# --- state and trace output -----------------------------------------------

def chart_to_obj(cfg: Configuration, chart: Chart, exc_stage: dict[int, int]) -> dict:
    return {
        "name": chart_name(cfg.registry, chart.label, chart.path),
        "path": [[s, cfg.registry[k]] for s, k in chart.path],
        **_chart_fields(cfg.registry, chart),
        "p_empty": chart.p_empty,
        "mark": chart.mark,
        "pullback_excess": monomial_obj(cfg.registry, chart.pullback_excess),
        "rendered": render_ideal(cfg, chart, exc_stage),
    }


def _child_obj(cfg: Configuration, chart: Chart, exc_stage: dict[int, int]) -> dict:
    """A chart a blow-up added, as the blow-up's record lists it."""
    return {
        "chart": chart_name(cfg.registry, chart.label, chart.path),
        "generators": [monomial_obj(cfg.registry, g) for g in chart.ideal.generators],
        "rendered": render_ideal(cfg, chart, exc_stage),
    }


def final_state_obj(cfg: Configuration, records) -> dict:
    exc_stage = {rec.exceptional: rec.stage for rec in records}
    return {
        "components": list(cfg.registry),
        "charts": [chart_to_obj(cfg, ch, exc_stage) for ch in cfg.charts],
        "summary": {
            "steps": len(records),
            "final_max_order": max_order(cfg),
            "principal": all(len(ch.ideal.generators) == 1 for ch in cfg.charts),
        },
    }


class StepRenderer:
    """Renders the steps of a permissible sequence as trace records.

    Called as `on_step(grown, record)` after each blow-up, in order: it
    appends the step's record object (centre, exceptional name, and each
    replaced chart with its children) to `objs`.  The exceptional stages
    are collected as the steps arrive; a chart only names components made
    at or before its own stage.
    """

    def __init__(self) -> None:
        self.exc_stage: dict[int, int] = {}
        self.objs: list[dict] = []

    def __call__(self, grown: Configuration, rec) -> None:
        self.exc_stage[rec.exceptional] = rec.stage
        registry = grown.registry
        outcomes = [
            {
                "chart": chart_name(registry, label, path),
                "children": [
                    _child_obj(grown, grown.chart((label, p)), self.exc_stage) for p in children
                ],
            }
            for (label, path), children in rec.outcomes
        ]
        self.objs.append(
            {
                "stage": rec.stage,
                "center": component_names(registry, rec.center),
                "exceptional": registry[rec.exceptional],
                "outcomes": outcomes,
            }
        )


def trace_document(
    initial: Configuration, steps: StepRenderer, final: Configuration, records, extra=None
) -> dict:
    """The trace of `records` from `initial` to `final`, whose steps
    `steps` rendered."""
    obj = {
        "format": TRACE_FORMAT,
        "input_digest": config_digest(initial),
        "input": config_to_obj(initial),
        "records": steps.objs,
        "final": final_state_obj(final, records),
    }
    if extra:
        obj.update(extra)
    return obj


def trace_to_obj(initial: Configuration, records, final: Configuration, extra=None) -> dict:
    """Serialize a permissible sequence, replaying it to check the records
    and render each step."""
    steps = StepRenderer()
    cfg = initial
    for rec in records:
        cfg, check = blow_up_global(cfg, rec.center)
        if check != rec:
            raise ValidationError("trace records do not replay deterministically")
        steps(cfg, rec)
    if cfg != final:
        raise ValidationError("records do not reproduce the final configuration")
    return trace_document(initial, steps, final, records, extra)


def replay_trace(initial: Configuration, trace_obj) -> tuple[Configuration, list]:
    """Re-run the recorded centres from the initial configuration."""
    _expect(isinstance(trace_obj, dict), "$", "trace must be an object")
    _expect(
        trace_obj.get("format") in READABLE_TRACE_FORMATS, "format", "unsupported trace format"
    )
    digest = config_digest(initial)
    _expect(
        trace_obj.get("input_digest") == digest,
        "input_digest",
        "trace does not belong to this configuration",
    )
    raw_records = trace_obj.get("records", [])
    _expect(isinstance(raw_records, list), "records", "record list required")
    cfg = initial
    records = []
    for i, rec in enumerate(raw_records):
        where = f"records[{i}]"
        _expect(isinstance(rec, dict), where, "record must be an object")
        center_names = rec.get("center")
        _expect(
            isinstance(center_names, list)
            and center_names
            and all(isinstance(n, str) for n in center_names),
            where,
            "center required as a non-empty list of component names",
        )
        center = frozenset(cfg.component_id(n) for n in center_names)
        cfg, record = blow_up_global(cfg, center)
        _expect(
            cfg.registry[record.exceptional] == rec.get("exceptional"),
            where,
            "exceptional component name mismatch",
        )
        records.append(record)
    return cfg, records
