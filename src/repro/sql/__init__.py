"""Mini SQL engine over repro tables (the MRKL/Symphony database module).

Queries run through three layers (see docs/sql.md): a logical plan IR
(:mod:`repro.sql.plan`), a rule-based optimizer
(:mod:`repro.sql.optimizer`), and a physical planner
(:mod:`repro.sql.physical`) that binds each node to columnar, sharded,
or materialized-view backends.  :func:`execute_naive` is the retained
fixed-order interpreter, the optimizer's equivalence oracle.
"""

from repro.sql.ast import Query
from repro.sql.engine import Database, execute_naive
from repro.sql.optimizer import optimize
from repro.sql.parser import parse_sql, tokenize
from repro.sql.physical import PhysicalPlan, bind
from repro.sql.plan import compile_query, plan_key, render_plan

__all__ = [
    "Database",
    "PhysicalPlan",
    "Query",
    "bind",
    "compile_query",
    "execute_naive",
    "optimize",
    "parse_sql",
    "plan_key",
    "render_plan",
    "tokenize",
]
