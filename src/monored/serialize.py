"""Configuration and trace (de)serialization.

Configurations are read from a JSON document keyed by component names; ids
are assigned in file order, which fixes the total order on components.
Traces (format `monored-trace-2`) serialize the permissible sequence, each
step listing the charts it replaces with their children, and a canonical
final-state section; loading the input plus the trace replays to a
byte-identical final state.  Replay reads only each step's centre and
exceptional name, so `monored-trace-1` traces, which also list every chart
a step leaves untouched, replay the same way.
"""

from __future__ import annotations

import hashlib
import json

from .core import Chart, Configuration, MarkedIdeal, Monomial, chart_name, max_order
from .errors import ValidationError

SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")
TRACE_FORMAT = "monored-trace-2"
READABLE_TRACE_FORMATS = ("monored-trace-1", TRACE_FORMAT)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


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
                _expect(n in ids, field, f"unknown component {n!r}")
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


def load_config_file(path: str) -> Configuration:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from None
    return load_config(obj)


def config_to_obj(cfg: Configuration) -> dict:
    """Input-schema view of a configuration (root charts only)."""
    return {
        "components": list(cfg.registry),
        "dim_p": cfg.dim_p,
        "mark": cfg.mark,
        "charts": [
            {
                "name": ch.label,
                "e_components": [cfg.registry[c] for c in ch.e_components],
                "n_vars": sorted(ch.n_vars),
                "p_components": [cfg.registry[c] for c in sorted(ch.p_components)],
                "generators": [
                    {cfg.registry[c]: e for c, e in g.exps} for g in ch.ideal.generators
                ],
            }
            for ch in cfg.charts
        ],
    }


def config_digest(cfg: Configuration) -> str:
    data = canonical_json(config_to_obj(cfg)).encode("utf-8")
    return "sha256:" + hashlib.sha256(data).hexdigest()


# --- rendering ------------------------------------------------------------

def _display_component(cfg: Configuration, chart: Chart, exc_stage: dict[int, int], comp: int) -> str:
    defining = dict((s, k) for s, k in chart.path)
    seen = set()
    while comp in exc_stage and comp not in seen:
        seen.add(comp)
        stage = exc_stage[comp]
        if stage not in defining:
            break
        comp = defining[stage]
    name = cfg.registry[comp]
    if chart.path:
        name = "".join(c + "̄" for c in name)
    return name


def render_monomial(cfg: Configuration, chart: Chart, exc_stage: dict[int, int], g: Monomial) -> str:
    if g.is_unit():
        return "1"
    parts = []
    for c, e in g.exps:
        name = _display_component(cfg, chart, exc_stage, c)
        parts.append(name if e == 1 else name + str(e).translate(SUPERSCRIPTS))
    return "".join(parts)


def render_ideal(cfg: Configuration, chart: Chart, exc_stage: dict[int, int]) -> str:
    return ", ".join(
        render_monomial(cfg, chart, exc_stage, g) for g in chart.ideal.generators
    )


# --- state and trace output -----------------------------------------------

def chart_to_obj(cfg: Configuration, chart: Chart, exc_stage: dict[int, int]) -> dict:
    return {
        "name": chart_name(cfg.registry, chart.label, chart.path),
        "path": [[s, cfg.registry[k]] for s, k in chart.path],
        "e_components": [cfg.registry[c] for c in chart.e_components],
        "n_vars": sorted(chart.n_vars),
        "p_components": [cfg.registry[c] for c in sorted(chart.p_components)],
        "p_empty": chart.p_empty,
        "mark": chart.mark,
        "generators": [{cfg.registry[c]: e for c, e in g.exps} for g in chart.ideal.generators],
        "pullback_excess": {cfg.registry[c]: e for c, e in chart.pullback_excess.exps},
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


def trace_to_obj(initial: Configuration, records, final: Configuration, extra=None) -> dict:
    """Serialize a permissible sequence, replaying it for per-step detail."""
    from .transform import blow_up_global  # local import to avoid a cycle

    exc_stage = {rec.exceptional: rec.stage for rec in records}
    cfg = initial
    rec_objs = []
    for rec in records:
        nxt, check = blow_up_global(cfg, rec.center)
        if check != rec:
            raise ValidationError("trace records do not replay deterministically")
        by_key = {(ch.label, ch.path): ch for ch in nxt.charts}
        outcomes = [
            {
                "chart": chart_name(cfg.registry, label, path),
                "children": [
                    {
                        "chart": chart_name(nxt.registry, label, cpath),
                        "generators": [
                            {nxt.registry[c]: e for c, e in g.exps}
                            for g in by_key[(label, cpath)].ideal.generators
                        ],
                        "rendered": render_ideal(nxt, by_key[(label, cpath)], exc_stage),
                    }
                    for cpath in children
                ],
            }
            for (label, path), children in rec.outcomes
        ]
        rec_objs.append(
            {
                "stage": rec.stage,
                "center": [cfg.registry[c] for c in sorted(rec.center)],
                "exceptional": nxt.registry[rec.exceptional],
                "outcomes": outcomes,
            }
        )
        cfg = nxt
    if cfg != final:
        raise ValidationError("records do not reproduce the final configuration")
    obj = {
        "format": TRACE_FORMAT,
        "input_digest": config_digest(initial),
        "input": config_to_obj(initial),
        "records": rec_objs,
        "final": final_state_obj(final, records),
    }
    if extra:
        obj.update(extra)
    return obj


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
    from .transform import blow_up_global

    raw_records = trace_obj.get("records", [])
    _expect(isinstance(raw_records, list), "records", "record list required")
    cfg = initial
    records = []
    for i, rec in enumerate(raw_records):
        where = f"records[{i}]"
        _expect(isinstance(rec, dict), where, "record must be an object")
        center_names = rec.get("center")
        _expect(isinstance(center_names, list) and center_names, where, "center required")
        center = frozenset(cfg.component_id(n) for n in center_names)
        cfg, record = blow_up_global(cfg, center)
        _expect(
            cfg.registry[record.exceptional] == rec.get("exceptional"),
            where,
            "exceptional component name mismatch",
        )
        records.append(record)
    return cfg, records
