"""Seeded input generators for the three benchmark workloads.

Each generator writes, into one directory keyed by workload and seed:

- BIRD-style databases under `<dir>/<db_id>/<db_id>.sqlite`, with description
  CSVs under `<db_id>/database_description/` where the workload has them;
- `dataset.json`, the question pool in BIRD format;
- `script.json`, the scripted model responses keyed by scenario key, with
  per-question and per-template fallbacks;
- `expect.json`, what the script implies for every question: the LLM call
  count, the predicted SQL, the EX score, the planted stored values and the
  WARNING records the program should log.

The program under test only ever sees the databases and the dataset. This
module imports nothing from the program or from its tests, so an edit there
cannot change the benchmark's inputs.

Every pool holds a multiple of four questions, and question i is scripted to
end wrong exactly when i % 4 == 3, so any run of whole groups of four has
ex_overall = 0.75.
"""

from __future__ import annotations

import csv
import json
import random
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path

_CONSONANTS = "bcdfghklmnprstv"
_VOWELS = "aeiou"
# Keywords that must match nothing use only characters stored values never
# contain, so they share no character 3-gram with any stored value.
_FOREIGN = "qxzjwy0123456789"

WRONG_EVERY = 4

# A sweep cycles through the pool; its question ids are `<pool id>-<round>`.
ROUND_SEP = "-"


def pool_id(qid: str) -> str:
    return qid.split(ROUND_SEP, 1)[0]


@dataclass
class Workload:
    name: str
    team: str
    n_candidates: int
    n_unit_tests: int
    max_revisions: int
    delay_s: float
    pool: int
    batch: int
    n_setups: int
    db_ids: list[str]
    # layers whose spans the traced run must see on this workload
    layers: list[str] = field(default_factory=list)

    def config_dict(self) -> dict:
        return {
            "team": self.team,
            "n_candidates": self.n_candidates,
            "n_unit_tests": self.n_unit_tests,
            "max_revisions": self.max_revisions,
        }


_CORE_LAYERS = [
    "catalog", "value_index", "context_store", "caching", "templates",
    "gateway", "agents", "executor", "pipeline", "harness",
]

WORKLOADS = {
    "ut_sweep": Workload(
        "ut_sweep", "IR_CG_UT", 20, 10, 3, 0.005,
        pool=64, batch=8, n_setups=7, db_ids=["motorsport", "finance"],
        layers=_CORE_LAYERS,
    ),
    "wide_prune": Workload(
        "wide_prune", "IR_SS_CG", 1, 10, 3, 0.0001,
        pool=32, batch=4, n_setups=5, db_ids=["wide_schema"],
        layers=_CORE_LAYERS + ["sql_items"],
    ),
    "value_heavy": Workload(
        "value_heavy", "IR_SS_CG", 1, 10, 3, 0.001,
        pool=64, batch=16, n_setups=2, db_ids=["value_store"],
        layers=_CORE_LAYERS + ["sql_items"],
    ),
}


# -- small helpers ------------------------------------------------------------


def _word(rng: random.Random, syllables: int) -> str:
    return "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables))


def _name(rng: random.Random) -> str:
    """Two three-syllable words: 13 characters from a space of ~1e11."""
    return f"{_word(rng, 3)} {_word(rng, 3)}"


def _distinct_names(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    out: list[str] = []
    while len(out) < n:
        value = _name(rng)
        if value not in taken:
            taken.add(value)
            out.append(value)
    return out


def _near_duplicate(rng: random.Random, value: str, edits: int) -> str:
    """A 1-edit substitution, or a 2-edit swap of two adjacent letters."""
    chars = list(value)
    letters = [i for i, ch in enumerate(chars) if ch != " "]
    if edits == 1:
        pos = rng.choice(letters)
        chars[pos] = rng.choice([c for c in _CONSONANTS + _VOWELS if c != chars[pos]])
    else:
        pairs = [i for i in letters if i + 1 in letters and chars[i] != chars[i + 1]]
        pos = rng.choice(pairs)
        chars[pos], chars[pos + 1] = chars[pos + 1], chars[pos]
    return "".join(chars)


def _nothing_keyword(rng: random.Random) -> str:
    return "".join(rng.choice(_FOREIGN) for _ in range(4)) + " " + "".join(
        rng.choice(_FOREIGN) for _ in range(4)
    )


def _json(**fields) -> str:
    return json.dumps(fields)


def _keywords(words: list[str]) -> str:
    return json.dumps(words)


def _candidate(sql: str) -> str:
    return _json(chain_of_thought_reasoning="scripted", SQL=sql)


def _revision(sql: str) -> str:
    return _json(chain_of_thought_reasoning="scripted fix", revised_SQL=sql)


def _filter(answer: str) -> str:
    return _json(chain_of_thought_reasoning="scripted", is_column_information_relevant=answer)


def _unit_tests(statements: list[str]) -> str:
    return f"<Thinking> scripted </Thinking>\n<Answer>\n{statements!r}\n</Answer>"


def _verdicts(passed: list[bool]) -> str:
    lines = "\n".join(
        f"Candidate Response #{i + 1}: {'Passed' if ok else 'Failed'}"
        for i, ok in enumerate(passed)
    )
    return f"<Thinking> scripted </Thinking>\n<Answer>\n{lines}\n</Answer>"


@dataclass
class Table:
    """One generated table: DDL columns, linking columns and rows."""

    name: str
    columns: list[tuple[str, str]]  # (name, declared type)
    pk: str
    fks: list[tuple[str, str]] = field(default_factory=list)  # (column, target table)
    rows: list[tuple] = field(default_factory=list)

    def ddl(self, pk_of: dict[str, str]) -> str:
        parts = [
            f"{c} {t} PRIMARY KEY" if c == self.pk else f"{c} {t}" for c, t in self.columns
        ]
        parts += [
            f"FOREIGN KEY ({col}) REFERENCES {target}({pk_of[target]})"
            for col, target in self.fks
        ]
        return f"CREATE TABLE {self.name} ({', '.join(parts)})"

    def linking(self) -> set[str]:
        return {self.pk} | {col for col, _ in self.fks}

    def non_linking(self) -> list[str]:
        keep = self.linking()
        return [c for c, _ in self.columns if c not in keep]


def _write_db(path: Path, tables: list[Table]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    pk_of = {t.name: t.pk for t in tables}
    conn = sqlite3.connect(path)
    try:
        for t in tables:
            conn.execute(t.ddl(pk_of))
            if t.rows:
                marks = ",".join("?" * len(t.columns))
                conn.executemany(f"INSERT INTO {t.name} VALUES ({marks})", t.rows)
        conn.commit()
    finally:
        conn.close()


def _write_descriptions(
    directory: Path, tables: list[Table], describe: dict[tuple[str, str], tuple[str, str, str]]
) -> None:
    """One CSV per table with (expanded name, description, value description)."""
    directory.mkdir(parents=True, exist_ok=True)
    for t in tables:
        rows = [(c, *describe[(t.name, c)]) for c, _ in t.columns if (t.name, c) in describe]
        if not rows:
            continue
        with open(directory / f"{t.name}.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["original_column_name", "column_name", "column_description",
                 "data_format", "value_description"]
            )
            for col, expanded, desc, value_desc in rows:
                writer.writerow([col, expanded, desc, "text", value_desc])


class Script:
    """Scripted responses and the expectations they imply."""

    def __init__(self) -> None:
        self.responses: dict[str, str] = {}
        self.question_defaults: dict[str, str] = {}
        self.template_defaults: dict[str, str] = {}
        self.expect: dict[str, dict] = {}
        self.dataset: list[dict] = []

    def say(self, scenario_key: str, template_id: str, text: str) -> None:
        self.responses[f"{scenario_key}|{template_id}"] = text

    def write(self, out: Path) -> None:
        (out / "dataset.json").write_text(json.dumps(self.dataset, indent=1), encoding="utf-8")
        (out / "script.json").write_text(
            json.dumps(
                {
                    "responses": self.responses,
                    "question_defaults": self.question_defaults,
                    "template_defaults": self.template_defaults,
                }
            ),
            encoding="utf-8",
        )
        (out / "expect.json").write_text(json.dumps(self.expect, indent=1), encoding="utf-8")


# -- ut_sweep -------------------------------------------------------------------

_UNIT_TESTS = [
    "The query must return exactly one row.",
    "The query must return exactly one column.",
    "The answer must be computed over the rows the question names.",
    "The query must not add a constant to the aggregate.",
    "The query must aggregate, not list, the matching rows.",
    "The filter must use the identifier given in the question.",
    "The answer must not be empty.",
    "The query must read the table that holds the measured quantity.",
    "Joins, if any, must follow the foreign keys.",
    "The result must be a number.",
]

# (question text, aggregate, FROM clause, condition, hint)
_MOTORSPORT_QUESTIONS = [
    ("How many race results does driver {p} have?", "COUNT(*)", "results",
     "driverId = {p}", "race results refers to rows of results"),
    ("How many points did constructor {p} score in total?", "SUM(points)", "results",
     "constructorId = {p}", "points in total refers to SUM(points)"),
    ("How many laps did driver {p} complete over all races?", "SUM(laps)", "results",
     "driverId = {p}", "laps completed refers to SUM(laps)"),
    ("How many results were recorded at races held on circuit {p}?", "COUNT(*)",
     "results AS T1 JOIN races AS T2 ON T1.raceId = T2.raceId", "T2.circuitId = {p}",
     "held on circuit refers to races.circuitId"),
]

_FINANCE_QUESTIONS = [
    ("How many transactions were made from account {p}?", "COUNT(*)", "trans",
     "account_id = {p}", "transactions refers to rows of trans"),
    ("What is the total amount lent to accounts of district {p}?", "SUM(T1.amount)",
     "loan AS T1 JOIN account AS T2 ON T1.account_id = T2.account_id",
     "T2.district_id = {p}", "amount lent refers to SUM(loan.amount)"),
]


def _motorsport_tables(rng: random.Random) -> tuple[list[Table], list[str], dict]:
    taken: set[str] = set()
    circuits = Table(
        "circuits",
        [("circuitId", "INTEGER"), ("circuitRef", "TEXT"), ("name", "TEXT"),
         ("location", "TEXT"), ("country", "TEXT"), ("lat", "REAL"), ("lng", "REAL")],
        "circuitId",
    )
    locations = _distinct_names(rng, 40, taken)
    names = _distinct_names(rng, 40, taken)
    countries = [_word(rng, 3) for _ in range(15)]
    for i in range(40):
        circuits.rows.append(
            (i + 1, f"{_word(rng, 2)}{i}", names[i], locations[i], rng.choice(countries),
             round(rng.uniform(-60, 60), 3), round(rng.uniform(-120, 120), 3))
        )
    drivers = Table(
        "drivers",
        [("driverId", "INTEGER"), ("driverRef", "TEXT"), ("forename", "TEXT"),
         ("surname", "TEXT"), ("nationality", "TEXT"), ("dob", "TEXT")],
        "driverId",
    )
    nationalities = [_word(rng, 3) for _ in range(20)]
    for i in range(400):
        drivers.rows.append(
            (i + 1, f"{_word(rng, 3)}{i}", _word(rng, 2), _word(rng, 3),
             rng.choice(nationalities),
             f"19{rng.randint(50, 99)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}")
        )
    constructors = Table(
        "constructors",
        [("constructorId", "INTEGER"), ("constructorRef", "TEXT"), ("name", "TEXT"),
         ("nationality", "TEXT")],
        "constructorId",
    )
    cnames = _distinct_names(rng, 50, taken)
    for i in range(50):
        constructors.rows.append((i + 1, f"{_word(rng, 2)}{i}", cnames[i], rng.choice(nationalities)))
    races = Table(
        "races",
        [("raceId", "INTEGER"), ("year", "INTEGER"), ("round", "INTEGER"),
         ("circuitId", "INTEGER"), ("name", "TEXT"), ("date", "TEXT")],
        "raceId", fks=[("circuitId", "circuits")],
    )
    for i in range(1000):
        year = 1950 + i // 20
        races.rows.append(
            (i + 1, year, i % 20 + 1, rng.randint(1, 40), f"{rng.choice(countries)} grand prix",
             f"{year}-{rng.randint(3, 11):02d}-{rng.randint(1, 28):02d}")
        )
    status = Table("status", [("statusId", "INTEGER"), ("status", "TEXT")], "statusId")
    for i in range(30):
        status.rows.append((i + 1, f"{_word(rng, 2)} {i}"))
    results = Table(
        "results",
        [("resultId", "INTEGER"), ("raceId", "INTEGER"), ("driverId", "INTEGER"),
         ("constructorId", "INTEGER"), ("grid", "INTEGER"), ("position", "INTEGER"),
         ("positionText", "TEXT"), ("points", "REAL"), ("laps", "INTEGER"),
         ("milliseconds", "INTEGER"), ("fastestLapTime", "TEXT"), ("statusId", "INTEGER")],
        "resultId",
        fks=[("raceId", "races"), ("driverId", "drivers"),
             ("constructorId", "constructors"), ("statusId", "status")],
    )
    for i in range(20_000):
        position = rng.randint(1, 24)
        results.rows.append(
            (i + 1, rng.randint(1, 1000), i % 400 + 1, i % 50 + 1, rng.randint(1, 24),
             position, str(position), float(max(0, 26 - position)), rng.randint(0, 78),
             rng.randint(5_000_000, 7_000_000),
             f"1:{rng.randint(10, 59):02d}.{rng.randint(0, 9)}", rng.randint(1, 30))
        )
    params = {
        "driverId = {p}": [r[0] for r in drivers.rows],
        "constructorId = {p}": [r[0] for r in constructors.rows],
        "T2.circuitId = {p}": sorted({r[3] for r in races.rows}),
    }
    return [circuits, drivers, constructors, races, status, results], locations + cnames, params


def _finance_tables(rng: random.Random) -> tuple[list[Table], list[str], dict, dict]:
    taken: set[str] = set()
    district = Table(
        "district",
        [("district_id", "INTEGER"), ("A2", "TEXT"), ("A3", "TEXT"), ("A4", "INTEGER")],
        "district_id",
    )
    names = _distinct_names(rng, 77, taken)
    regions = _distinct_names(rng, 8, taken)
    for i in range(77):
        district.rows.append((i + 1, names[i], regions[i % 8], rng.randint(1000, 1_200_000)))
    client = Table(
        "client",
        [("client_id", "INTEGER"), ("gender", "TEXT"), ("birth_date", "TEXT"),
         ("district_id", "INTEGER")],
        "client_id", fks=[("district_id", "district")],
    )
    for i in range(2000):
        client.rows.append(
            (i + 1, rng.choice("MF"), f"19{rng.randint(30, 99)}-{rng.randint(1, 12):02d}-01",
             i % 77 + 1)
        )
    account = Table(
        "account",
        [("account_id", "INTEGER"), ("district_id", "INTEGER"), ("frequency", "TEXT"),
         ("date", "TEXT")],
        "account_id", fks=[("district_id", "district")],
    )
    for i in range(1500):
        account.rows.append(
            (i + 1, i % 77 + 1, rng.choice(["monthly issuance", "weekly issuance",
                                           "issuance after transaction"]),
             f"199{rng.randint(3, 7)}-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}")
        )
    loan = Table(
        "loan",
        [("loan_id", "INTEGER"), ("account_id", "INTEGER"), ("date", "TEXT"),
         ("amount", "INTEGER"), ("duration", "INTEGER"), ("payments", "REAL"),
         ("status", "TEXT")],
        "loan_id", fks=[("account_id", "account")],
    )
    for i in range(770):
        amount = rng.randint(4_000, 600_000)
        duration = rng.choice([12, 24, 36, 48, 60])
        loan.rows.append(
            (i + 1, rng.randint(1, 1500), f"199{rng.randint(3, 8)}-01-01", amount, duration,
             round(amount / duration, 1), rng.choice("ABCD"))
        )
    trans = Table(
        "trans",
        [("trans_id", "INTEGER"), ("account_id", "INTEGER"), ("date", "TEXT"),
         ("type", "TEXT"), ("operation", "TEXT"), ("amount", "INTEGER"),
         ("balance", "INTEGER"), ("k_symbol", "TEXT")],
        "trans_id", fks=[("account_id", "account")],
    )
    for i in range(9000):
        trans.rows.append(
            (i + 1, i % 1500 + 1, f"199{rng.randint(3, 8)}-{rng.randint(1, 12):02d}-01",
             rng.choice(["credit", "withdrawal"]),
             rng.choice(["cash deposit", "bank transfer", "card withdrawal"]),
             rng.randint(10, 50_000), rng.randint(0, 200_000),
             rng.choice(["household", "pension", "insurance payment", "loan payment"]))
        )
    loan_districts = sorted({account.rows[r[1] - 1][1] for r in loan.rows})
    params = {
        "account_id = {p}": [r[0] for r in account.rows],
        "T2.district_id = {p}": loan_districts,
    }
    tables = [district, client, account, loan, trans]
    describe = {}
    for t in tables:
        for c, _ in t.columns:
            describe[(t.name, c)] = (
                c.replace("_", " "),
                f"the {c.replace('_', ' ')} of the {t.name} record",
                "" if c != "A3" else "region of the district",
            )
    return tables, names + regions, params, describe


def _ut_candidates(agg: str, frm: str, cond: str) -> dict[str, str]:
    base = f"FROM {frm} WHERE {cond}"
    return {
        "G": f"SELECT {agg} {base}",
        "V1": f"SELECT {agg} AS answer {base}",
        "V2": f"SELECT {agg} FROM {frm} WHERE ({cond})",
        "V3": f"SELECT {agg} {base} AND 1 = 1",
        "W1": f"SELECT {agg} + 1 {base}",
        "W2": f"SELECT {agg} + 2 {base}",
        "SYN": f"SELEC {agg} {base}",
        "RT1": f"SELECT {agg} {base} AND no_such_column_1 = 1",
        "RT2": f"SELECT {agg} {base} AND no_such_column_2 = 1",
        "E0": f"SELECT {agg} {base} LIMIT 0",
        "E1": f"SELECT {agg} {base} LIMIT 0 OFFSET 1",
        "E2": f"SELECT {agg} {base} LIMIT 0 OFFSET 2",
        "E3": f"SELECT {agg} {base} LIMIT 0 OFFSET 3",
    }


# The 20 samples of every ut_sweep question: 7 correct, 3 syntax errors fixed
# at revision 1, 5 + 3 wrong but executable, 1 runtime error fixed (to a wrong
# query) at revision 2, 1 empty result that exhausts the 3 revisions. That is
# 8 revisions and 1 + 20 + 8 + 1 + 10 = 40 calls per question.
_UT_MIX = ["G", "G", "V1", "V1", "V2", "V2", "V3", "SYN", "SYN", "SYN",
           "W1", "W1", "W1", "W1", "W1", "W2", "W2", "W2", "RT", "EMPTY"]


# (on finance, question template) for each position of a batch, so that every
# batch asks the same mix: two finance questions, four single-table
# motorsport questions and two motorsport joins (the slowest quarter). The
# latency median and p90 then each sit inside one group of like questions,
# not on the boundary between two.
_UT_SLOTS = [
    (False, 0), (True, 0), (False, 1), (False, 3),
    (False, 2), (True, 1), (False, 3), (False, 0),
]


def _generate_ut_sweep(rng: random.Random, out: Path, wl: Workload) -> None:
    m_tables, m_plant, m_params = _motorsport_tables(rng)
    f_tables, f_plant, f_params, f_describe = _finance_tables(rng)
    _write_db(out / "motorsport" / "motorsport.sqlite", m_tables)
    _write_db(out / "finance" / "finance.sqlite", f_tables)
    _write_descriptions(out / "finance" / "database_description", f_tables, f_describe)

    script = Script()
    script.template_defaults["generate_unit_tests"] = _unit_tests(_UNIT_TESTS)
    for i in range(wl.pool):
        qid = f"ut{i:04d}"
        on_finance, template = _UT_SLOTS[i % len(_UT_SLOTS)]
        db_id = "finance" if on_finance else "motorsport"
        params = f_params if on_finance else m_params
        plant_pool = f_plant if on_finance else m_plant
        text, agg, frm, cond_t, hint = (
            _FINANCE_QUESTIONS if on_finance else _MOTORSPORT_QUESTIONS
        )[template]
        p = rng.choice(params[cond_t])
        cond = cond_t.format(p=p)
        sqls = _ut_candidates(agg, frm, cond)
        planted = rng.sample(plant_pool, 2)
        typos = [_near_duplicate(rng, v, 1) for v in planted]
        question = text.format(p=p) + f" Mentioned: {typos[0]}; {typos[1]}."

        mix = list(_UT_MIX)
        rng.shuffle(mix)
        final_kind: list[str] = []
        for g, kind in enumerate(mix):
            key = f"{qid}+generate_candidate+{g}"
            if kind == "SYN":
                fixed = rng.choice(["V1", "V2", "V3"])
                script.say(key, "generate_candidate", _candidate(sqls["SYN"]))
                script.say(f"{qid}+revise+{g}.1", "revise", _revision(sqls[fixed]))
                final_kind.append(fixed)
            elif kind == "RT":
                script.say(key, "generate_candidate", _candidate(sqls["RT1"]))
                script.say(f"{qid}+revise+{g}.1", "revise", _revision(sqls["RT2"]))
                script.say(f"{qid}+revise+{g}.2", "revise", _revision(sqls["W1"]))
                final_kind.append("W1")
            elif kind == "EMPTY":
                script.say(key, "generate_candidate", _candidate(sqls["E0"]))
                for r in (1, 2, 3):
                    script.say(f"{qid}+revise+{g}.{r}", "revise", _revision(sqls[f"E{r}"]))
                final_kind.append("E3")
            else:
                script.say(key, "generate_candidate", _candidate(sqls[kind]))
                final_kind.append(kind)
        wrong = i % WRONG_EVERY == WRONG_EVERY - 1
        winners = {"W2"} if wrong else {"G", "V1", "V2", "V3"}
        passed = [k in winners for k in final_kind]
        script.question_defaults[f"{qid}|evaluate_unit_test"] = _verdicts(passed)
        script.say(f"{qid}+extract_keywords+0", "extract_keywords",
                   _keywords(typos + [frm.split()[0]]))
        winner = passed.index(True)
        script.dataset.append(
            {"question_id": qid, "db_id": db_id, "question": question, "evidence": hint,
             "SQL": sqls["G"], "difficulty": "moderate"}
        )
        script.expect[qid] = {
            "llm_calls": 1 + 20 + 8 + 1 + wl.n_unit_tests,
            "predicted_sql": sqls[final_kind[winner]],
            "ex": 0 if wrong else 1,
            "planted": planted,
            "degraded": {},
        }
    script.write(out)


# -- wide_prune -------------------------------------------------------------------

WIDE_COLUMNS = 4337

# Column layout of one replicated group: table -> (columns, foreign keys).
_GROUP = [
    ("customer", [("id", "INTEGER"), ("name", "TEXT"), ("city", "TEXT"), ("segment", "TEXT"),
                  ("phone", "TEXT"), ("email", "TEXT"), ("created", "TEXT"), ("score", "REAL")],
     []),
    ("product", [("id", "INTEGER"), ("title", "TEXT"), ("category", "TEXT"), ("price", "REAL"),
                 ("stock", "INTEGER"), ("vendor", "TEXT"), ("sku", "TEXT")], []),
    ("orders", [("id", "INTEGER"), ("customer_id", "INTEGER"), ("product_id", "INTEGER"),
                ("qty", "INTEGER"), ("total", "REAL"), ("status", "TEXT"), ("placed", "TEXT"),
                ("channel", "TEXT")], [("customer_id", "customer"), ("product_id", "product")]),
    ("shipment", [("id", "INTEGER"), ("order_id", "INTEGER"), ("carrier", "TEXT"),
                  ("shipped", "TEXT"), ("delivered", "TEXT"), ("cost", "REAL")],
     [("order_id", "orders")]),
    ("review", [("id", "INTEGER"), ("product_id", "INTEGER"), ("customer_id", "INTEGER"),
                ("stars", "INTEGER"), ("body", "TEXT"), ("posted", "TEXT")],
     [("product_id", "product"), ("customer_id", "customer")]),
    ("order_item", [("id", "INTEGER"), ("order_id", "INTEGER"), ("product_id", "INTEGER"),
                    ("note", "TEXT")], [("order_id", "orders"), ("product_id", "product")]),
]
_GROUP_COLUMNS = sum(len(cols) for _, cols, _ in _GROUP)
_WIDE_ROWS = 2


def _wide_tables(rng: random.Random) -> tuple[list[Table], int, dict]:
    """Replicated groups until exactly WIDE_COLUMNS columns; the last is cut short."""
    tables: list[Table] = []
    total = 0
    group = 0
    taken: set[str] = set()
    while total < WIDE_COLUMNS:
        prefix = f"g{group:03d}_"
        for base, cols, fks in _GROUP:
            room = WIDE_COLUMNS - total
            if room <= 0:
                break
            # a foreign key always targets an earlier table of its group
            kept = cols[:room]
            names = {n for n, _ in kept}
            t = Table(prefix + base, kept, "id",
                      fks=[(c, prefix + target) for c, target in fks if c in names])
            for r in range(_WIDE_ROWS):
                row = []
                for name, typ in t.columns:
                    if name == "id":
                        row.append(r + 1)
                    elif name.endswith("_id"):
                        row.append(rng.randint(1, _WIDE_ROWS))
                    elif typ == "TEXT":
                        row.append(_distinct_names(rng, 1, taken)[0])
                    elif typ == "REAL":
                        row.append(round(rng.uniform(1, 500), 2))
                    else:
                        row.append(rng.randint(0, 100))
                t.rows.append(tuple(row))
            tables.append(t)
            total += len(t.columns)
        group += 1
    describe = {}
    for t in tables:
        for i, (c, _) in enumerate(t.columns):
            if (i + len(t.name)) % 6 == 0:  # leave about one column in six undescribed
                continue
            base = t.name.split("_", 1)[1]
            describe[(t.name, c)] = (
                c.replace("_", " "),
                f"{c.replace('_', ' ')} recorded for each {base} in group {t.name[:4]}",
                f"one value per {base}" if c in ("status", "channel", "segment") else "",
            )
    return tables, group - 1, describe


def _generate_wide_prune(rng: random.Random, out: Path, wl: Workload) -> None:
    tables, full_groups, describe = _wide_tables(rng)
    if sum(len(t.columns) for t in tables) != WIDE_COLUMNS:
        raise ValueError("wide schema does not have the planned column count")
    _write_db(out / "wide_schema" / "wide_schema.sqlite", tables)
    _write_descriptions(out / "wide_schema" / "database_description", tables, describe)
    by_name = {t.name: t for t in tables}
    filter_calls = sum(len(t.non_linking()) for t in tables)

    script = Script()
    script.template_defaults["filter_column"] = _filter("No")
    for i in range(wl.pool):
        qid = f"wide{i:04d}"
        g = rng.randrange(full_groups)
        customer, product = by_name[f"g{g:03d}_customer"], by_name[f"g{g:03d}_product"]
        row = rng.choice(customer.rows)
        city = row[2]
        title = rng.choice(product.rows)[1]
        planted = [city, title]
        typos = [_near_duplicate(rng, city, 1), _near_duplicate(rng, title, 2)]
        gold = f"SELECT COUNT(*) FROM {customer.name} WHERE city = '{city}'"
        wrong = i % WRONG_EVERY == WRONG_EVERY - 1
        predicted = gold.replace("COUNT(*)", "COUNT(*) + 1") if wrong else gold
        script.say(f"{qid}+extract_keywords+0", "extract_keywords",
                   _keywords(typos + ["customers"]))
        for col in ("name", "city"):
            script.say(f"{qid}+filter_column+{customer.name}.{col}", "filter_column",
                       _filter("Yes"))
        script.say(f"{qid}+filter_column+g{g:03d}_orders.total", "filter_column", _filter("Yes"))
        # one unparseable vote per question: the filter keeps the column and
        # logs a WARNING, so degraded.agents must read exactly 1 per question
        script.say(f"{qid}+filter_column+{product.name}.title", "filter_column",
                   "The column might matter.")
        script.say(f"{qid}+select_tables+0", "select_tables",
                   _json(chain_of_thought_reasoning="scripted", table_names=[customer.name]))
        script.say(f"{qid}+select_columns+0", "select_columns",
                   json.dumps({"chain_of_thought_reasoning": "scripted",
                               customer.name: ["city"]}))
        script.say(f"{qid}+generate_candidate+0", "generate_candidate", _candidate(predicted))
        script.dataset.append(
            {"question_id": qid, "db_id": "wide_schema",
             "question": f"How many customers of group {g} live in {typos[0]}? "
                         f"Also mentioned: {typos[1]}.",
             "evidence": "live in refers to city", "SQL": gold, "difficulty": "simple"}
        )
        script.expect[qid] = {
            "llm_calls": 1 + filter_calls + 3,
            "predicted_sql": predicted,
            "ex": 0 if wrong else 1,
            "planted": planted,
            "degraded": {"agents": 1},
        }
    script.write(out)


# -- value_heavy ------------------------------------------------------------------


def _value_tables(rng: random.Random) -> tuple[list[Table], dict, dict]:
    taken: set[str] = set()
    n_customer, n_product, n_store, n_purchase = 48_000, 35_000, 6_000, 50_000
    cities = _distinct_names(rng, 2_000, taken)
    brands = _distinct_names(rng, 3_000, taken)
    customer = Table(
        "customer",
        [("id", "INTEGER"), ("full_name", "TEXT"), ("city", "TEXT"), ("email", "TEXT"),
         ("segment", "TEXT"), ("signup", "TEXT"), ("score", "REAL")],
        "id",
    )
    full_names = _distinct_names(rng, n_customer, taken)
    emails = _distinct_names(rng, n_customer, taken)
    for i in range(n_customer):
        customer.rows.append(
            (i + 1, full_names[i], rng.choice(cities), emails[i].replace(" ", "@") + ".org",
             rng.choice(["retail", "business", "public"]),
             f"20{rng.randint(10, 23)}-{rng.randint(1, 12):02d}-01", round(rng.random(), 3))
        )
    product = Table(
        "product",
        [("id", "INTEGER"), ("title", "TEXT"), ("brand", "TEXT"), ("category", "TEXT"),
         ("price", "REAL")],
        "id",
    )
    titles = _distinct_names(rng, n_product, taken)
    for i in range(n_product):
        product.rows.append(
            (i + 1, titles[i], rng.choice(brands), rng.choice(["food", "tools", "toys", "books"]),
             round(rng.uniform(1, 900), 2))
        )
    store = Table(
        "store",
        [("id", "INTEGER"), ("store_name", "TEXT"), ("district", "TEXT"), ("manager", "TEXT")],
        "id",
    )
    store_names = _distinct_names(rng, n_store, taken)
    managers = _distinct_names(rng, n_store, taken)
    for i in range(n_store):
        store.rows.append((i + 1, store_names[i], rng.choice(cities), managers[i]))
    purchase = Table(
        "purchase",
        [("id", "INTEGER"), ("customer_id", "INTEGER"), ("product_id", "INTEGER"),
         ("store_id", "INTEGER"), ("qty", "INTEGER"), ("amount", "REAL"), ("channel", "TEXT"),
         ("note", "TEXT")],
        "id", fks=[("customer_id", "customer"), ("product_id", "product"), ("store_id", "store")],
    )
    notes = _distinct_names(rng, n_purchase, taken)
    for i in range(n_purchase):
        purchase.rows.append(
            (i + 1, rng.randint(1, n_customer), rng.randint(1, n_product),
             rng.randint(1, n_store), rng.randint(1, 9), round(rng.uniform(1, 900), 2),
             rng.choice(["web", "shop", "phone"]), notes[i])
        )
    tables = [customer, product, store, purchase]
    describe = {}
    for t in tables:
        for c, _ in t.columns:
            describe[(t.name, c)] = (
                c.replace("_", " "),
                f"the {c.replace('_', ' ')} of each {t.name}",
                "free text" if c in ("note", "title") else "",
            )
    plant = {
        ("customer", "full_name"): full_names,
        ("product", "title"): titles,
        ("store", "manager"): managers,
        ("purchase", "note"): notes,
    }
    return tables, plant, describe


def _generate_value_heavy(rng: random.Random, out: Path, wl: Workload) -> None:
    tables, plant, describe = _value_tables(rng)
    _write_db(out / "value_store" / "value_store.sqlite", tables)
    _write_descriptions(out / "value_store" / "database_description", tables, describe)
    filter_calls = sum(len(t.non_linking()) for t in tables)

    script = Script()
    script.template_defaults["filter_column"] = _filter("No")
    for i in range(wl.pool):
        qid = f"val{i:04d}"
        planted = [rng.choice(values) for values in plant.values()]
        # two single substitutions, two adjacent swaps, two keywords that
        # match nothing
        typos = [_near_duplicate(rng, v, 1 + j // 2) for j, v in enumerate(planted)]
        keywords = typos + [_nothing_keyword(rng), _nothing_keyword(rng)]
        gold = f"SELECT COUNT(*) FROM customer WHERE full_name = '{planted[0]}'"
        wrong = i % WRONG_EVERY == WRONG_EVERY - 1
        predicted = gold.replace("COUNT(*)", "COUNT(*) + 1") if wrong else gold
        script.say(f"{qid}+extract_keywords+0", "extract_keywords", _keywords(keywords))
        for col in ("full_name", "city"):
            script.say(f"{qid}+filter_column+customer.{col}", "filter_column", _filter("Yes"))
        script.say(f"{qid}+select_tables+0", "select_tables",
                   _json(chain_of_thought_reasoning="scripted", table_names=["customer"]))
        script.say(f"{qid}+select_columns+0", "select_columns",
                   _json(chain_of_thought_reasoning="scripted", customer=["full_name"]))
        script.say(f"{qid}+generate_candidate+0", "generate_candidate", _candidate(predicted))
        script.dataset.append(
            {"question_id": qid, "db_id": "value_store",
             "question": f"How many customers are called {typos[0]}? "
                         f"Context: {typos[1]}, {typos[2]}, {typos[3]}, "
                         f"{keywords[4]}, {keywords[5]}.",
             "evidence": "called refers to full_name", "SQL": gold, "difficulty": "simple"}
        )
        script.expect[qid] = {
            "llm_calls": 1 + filter_calls + 3,
            "predicted_sql": predicted,
            "ex": 0 if wrong else 1,
            "planted": planted,
            "degraded": {},
        }
    script.write(out)


_GENERATORS = {
    "ut_sweep": _generate_ut_sweep,
    "wide_prune": _generate_wide_prune,
    "value_heavy": _generate_value_heavy,
}


def generate(workload: str, seed: int, out: Path) -> None:
    """Write every input of `workload` for `seed` into `out`."""
    wl = WORKLOADS[workload]
    out.mkdir(parents=True, exist_ok=True)
    _GENERATORS[workload](random.Random(f"{workload}:{seed}"), out, wl)
