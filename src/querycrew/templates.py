"""Prompt templates for the nine agent tools, plus rendering.

Template bodies are frozen assets: byte-stable rendering is part of the
contract (golden tests pin it down). Placeholders are upper-case tokens in
braces; rendering requires every placeholder to be bound and raises
RenderError naming the first missing one. Literal braces in the JSON output
examples pass through untouched because placeholder tokens must start with
an upper-case letter.

A template also fixes its tool's output shape and whether an answer that
does not parse is re-asked. The few-shot blocks are part of the
`extract_keywords` and `filter_column` bodies.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

JSON_OBJECT = "json_object"
PYTHON_LIST = "python_list"
TAGGED_ANSWER_BLOCK = "tagged_answer_block"
VERDICT_LINES = "verdict_lines"

_PLACEHOLDER = re.compile(r"\{([A-Z][A-Z0-9_]*)\}")


class RenderError(Exception):
    """A placeholder was left unbound or the template id is unknown."""


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    body: str
    expected_shape: str
    # whether an answer that does not parse is asked once more (see `Gateway.structured`)
    reask: bool = True
    # the body split once at its placeholders: literals at even positions, names at odd
    parts: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(_PLACEHOLDER.split(self.body)))

    def placeholders(self) -> list[str]:
        return list(dict.fromkeys(self.parts[1::2]))


# The frozen few-shot blocks of the two bodies that carry examples.

FEWSHOT_EXTRACT_KEYWORDS = """\
Example 1:
Question: How many male customers live in the city of Prague?
Hint: male customers refers to gender = 'M'
["male customers", "city", "Prague", "gender = 'M'", "M"]

Example 2:
Question: What is the average salary of employees hired after 2010 in the sales department?
Hint: hired after 2010 refers to year(hire_date) > 2010
["average salary", "employees", "hired after 2010", "sales department", "year(hire_date) > 2010"]

Example 3:
Question: List the titles of books published by Penguin with more than 500 pages.
Hint: more than 500 pages refers to num_pages > 500
["titles", "books", "Penguin", "more than 500 pages", "num_pages > 500"]"""

FEWSHOT_FILTER_COLUMN = """\
Example 1:
Column information:
Table name: orders
Original column name: order_date
Data type: DATE
Description: the date the order was placed
Question: How many orders were placed in March 2012?
HINT: placed in March 2012 refers to order_date LIKE '2012-03%'
Answer: {"chain_of_thought_reasoning": "The question filters orders by the month they were placed, which is stored in this column.", "is_column_information_relevant": "Yes"}

Example 2:
Column information:
Table name: customers
Original column name: fax_number
Data type: TEXT
Description: customer fax number
Question: What is the email address of the customer named Ava Smith?
HINT: none
Answer: {"chain_of_thought_reasoning": "The question asks for an email address and a name; a fax number does not help.", "is_column_information_relevant": "No"}

Example 3:
Column information:
Table name: products
Original column name: unit_price
Data type: REAL
Description: price per unit in USD
Question: Name the cheapest product.
HINT: cheapest refers to MIN(unit_price)
Answer: {"chain_of_thought_reasoning": "Finding the cheapest product requires comparing unit prices.", "is_column_information_relevant": "Yes"}"""


_EXTRACT_KEYWORDS_BODY = """\
Objective: Analyze the given question and hint to identify and extract keywords, keyphrases, and named entities. These elements are crucial for understanding the core components of the inquiry and the guidance provided. This process involves recognizing and isolating significant terms and phrases that could be instrumental in formulating searches or queries related to the posed question.

Instructions:
1. Read the Question Carefully: Understand the primary focus and specific details of the question. Look for any named entities (such as organizations, locations, etc.), technical terms, and other phrases that encapsulate important aspects of the inquiry.
2. Analyze the Hint: The hint is designed to direct attention toward certain elements relevant to answering the question. Extract any keywords, phrases, or named entities that could provide further clarity or direction in formulating an answer.
3. List Keyphrases and Entities: Combine your findings from both the question and the hint into a single Python list. This list should contain:
- Keywords: Single words that capture essential aspects of the question or hint.
- Keyphrases: Short phrases or named entities that represent specific concepts, locations, organizations, or other significant details.
Ensure to maintain the original phrasing or terminology used in the question and hint.

""" + FEWSHOT_EXTRACT_KEYWORDS + """

Task:
Given the following question and hint, identify and list all relevant keywords, keyphrases, and named entities.

Question: {QUESTION}

Hint: {HINT}

Please provide your findings as a Python list, capturing the essence of both the question and hint through the identified terms and phrases.
Only output the Python list, no explanations needed.
"""

_SELECT_TABLES_BODY = """\
You are an expert and very smart data analyst.
Your task is to analyze the provided database schema, comprehend the posed question, and leverage the hint to identify which tables are needed to generate a SQL query for answering the question.

Database Schema Overview:
{DATABASE_SCHEMA}

This schema provides a detailed definition of the database's structure, including tables, their columns, primary keys, foreign keys, and any relevant details about relationships or constraints.
For key phrases mentioned in the question, we have provided the most similar values within the columns denoted by "-- examples" in front of the corresponding column names. This is a critical hint to identify the tables that will be used in the SQL query.

Question:
{QUESTION}

Hint:
{HINT}

The hint aims to direct your focus towards the specific elements of the database schema that are crucial for answering the question effectively.

Task:
Based on the database schema, question, and hint provided, your task is to determine the tables that should be used in the SQL query formulation.
For each of the selected tables, explain why exactly it is necessary for answering the question. Your explanation should be logical and concise, demonstrating a clear understanding of the database schema, the question, and the hint.

Please respond with a JSON object structured as follows:

{
    "chain_of_thought_reasoning": "Explanation of the logical analysis that led to the selection of the tables.",
    "table_names": ["Table1", "Table2", "Table3", ...]
}

Note that you should choose all and only the tables that are necessary to write a SQL query that answers the question effectively.
Only output a json as your response.
"""

_SELECT_COLUMNS_BODY = """\
You are an expert and very smart data analyst.
Your task is to examine the provided database schema, understand the posed question, and use the hint to pinpoint the specific columns within tables that are essential for crafting a SQL query to answer the question.

Database Schema Overview:
{DATABASE_SCHEMA}

This schema offers an in-depth description of the database's architecture, detailing tables, columns, primary keys, foreign keys, and any pertinent information regarding relationships or constraints. Special attention should be given to the examples listed beside each column, as they directly hint at which columns are relevant to our query.
For key phrases mentioned in the question, we have provided the most similar values within the columns denoted by "-- examples" in front of the corresponding column names. This is a critical hint to identify the columns that will be used in the SQL query.

Question:
{QUESTION}

Hint:
{HINT}

The hint aims to direct your focus towards the specific elements of the database schema that are crucial for answering the question effectively.

Task:
Based on the database schema, question, and hint provided, your task is to identify all and only the columns that are essential for crafting a SQL query to answer the question.
For each of the selected columns, explain why exactly it is necessary for answering the question. Your reasoning should be concise and clear, demonstrating a logical connection between the columns and the question asked.

Tip: If you are choosing a column for filtering a value within that column, make sure that column has the value as an example.

Please respond with a JSON object structured as follows:

{
    "chain_of_thought_reasoning": "Your reasoning for selecting the columns, be concise and clear.",
    "table_name1": ["column1", "column2", ...],
    "table_name2": ["column1", "column2", ...],
    ...
}

Make sure your response includes the table names as keys, each associated with a list of column names that are necessary for writing a SQL query to answer the question.
For each aspect of the question, provide a clear and concise explanation of your reasoning behind selecting the columns.
Only output a json as your response.
"""

_FILTER_COLUMN_BODY = """\
You are a detail-oriented data scientist tasked with evaluating the relevance of database column information for answering specific SQL query question based on provided hint.
Your goal is to assess whether the given column details are pertinent to constructing an SQL query to address the question informed by the hint. Label the column information as "relevant" if it aids in query formulation, or "irrelevant" if it does not.

Procedure:
1. Carefully examine the provided column details.
2. Understand the question about the database and its associated hint.
3. Decide if the column details are necessary for the SQL query based on your analysis.

Here is an example of how to determine if the column information is relevant or irrelevant to the question and the hint:

""" + FEWSHOT_FILTER_COLUMN + """

Now, it's your turn to determine whether the provided column information can help formulate a SQL query to answer the given question, based on the provided hint.

The following guidelines are VERY IMPORTANT to follow. Make sure to check each of them carefully before making your decision:
1. You're given only one column's information, which alone isn't enough to answer the full query. Concentrate solely on this provided data and assess its relevance to the question and hint without considering any missing information.
2. Read the column information carefully and understand the description of it, then see if the question or the hint is asking or referring to the same information. If yes then the column information is relevant, otherwise it is irrelevant.

Column information:
{COLUMN_PROFILE}

Question:
{QUESTION}

HINT:
{HINT}

Take a deep breath and provide your answer in the following json format:

{
    "chain_of_thought_reasoning": "One line explanation of why or why not the column information is relevant to the question and the hint.",
    "is_column_information_relevant": "Yes" or "No"
}

Only output a json as your response.
"""

_GENERATE_CANDIDATE_BODY = """\
You are a data science expert.
Below, you are presented with a database schema and a question.
Your task is to read the schema, understand the question, and generate a valid SQLite query to answer the question.
Before generating the final SQL query think step by step on how to write the query.

Database Schema:
{DATABASE_SCHEMA}

This schema offers an in-depth description of the database's architecture, detailing tables, columns, primary keys, foreign keys, and any pertinent information regarding relationships or constraints. Special attention should be given to the examples listed beside each column, as they directly hint at which columns are relevant to our query.

Database admin instructions:
- Make sure you only output the information that is asked in the question. If the question asks for a specific column, make sure to only include that column in the SELECT clause, nothing more.
- Predicted query should return all of the information asked in the question without any missing or extra information.

Question:
{QUESTION}

Hint:
{HINT}

Please respond with a JSON object structured as follows:

{
    "chain_of_thought_reasoning": "Your thought process on how you arrived at the final SQL query.",
    "SQL": "Your SQL query in a single string."
}

Priority should be given to columns that have been explicitly matched with examples relevant to the question's context.

Take a deep breath and think step by step to find the correct SQLite SQL query.
"""

_REVISE_BODY = """\
Objective: Your objective is to make sure a query follows the database admin instructions and use the correct conditions.

Database Schema:
{DATABASE_SCHEMA}

Database admin instructions:
- Make sure you only output the information that is asked in the question. If the question asks for a specific column, make sure to only include that column in the SELECT clause, nothing more.
- Predicted query should return all of the information asked in the question without any missing or extra information.

{MISSING_ENTITIES}

Question:
{QUESTION}

Hint:
{HINT}

Predicted query:
{SQL}

Query result:
{QUERY_RESULT}

Please respond with a JSON object structured as follows (if the sql query is correct, return the query as it is):

{
    "chain_of_thought_reasoning": "Your thought process on how you arrived at the solution. You don't need to explain the instructions that are satisfied.",
    "revised_SQL": "Your revised SQL query."
}

Take a deep breath and think step by step to find the correct SQLite SQL query.
"""

_GENERATE_UNIT_TESTS_BODY = """\
** Instructions: **

Given the following question database schema, and candidate responses, generate a set of {UNIT_TEST_CAP} unit tests that would evaluate the correctness of SQL queries that would answer the question.
Unit tests should be designed in a way that distinguish the candidate responses from each other.

- The unit tests should cover various aspects of the question and ensure comprehensive evaluation.
- Each unit test should be clearly stated and should include the expected outcome.
- Each unit test should be designed in a way that it can distinguishes at lease two candidate responses from each other.
- The unit test should be formatted like 'The answer SQL query should mention...', 'The answer SQL query should state...', 'The answer SQL query should use...', etc. followed by the expected outcome.
- First think step by step how you can design the units tests to distinguish the candidate responses using the <Thinking> tags.
- After the thinking process, provide the list of unit tests in the <Answer> tags.

VERY IMPORTANT:
All of the unit tests should consider the logic of the SQL query do not consider the formatting of the output or output values.

You are provided with different clusters of the candidate responses. Each cluster contains similar responses based on their results.
You MUST generate test cases that can distinguish between the candidate responses in each cluster and the test case should promote the candidate responses that you think are correct.

Example of the output format:
<Thinking> Your step-by-step reasoning here. <Thinking>
<Answer>
['The answer SQL query should mention...', ...]
<Answer>

*** Database Schema: **
{DATABASE_SCHEMA}

*** Candidate Clusters: **
{CANDIDATE_QUERIES}

*** Question: **
Question: {QUESTION} (Hint: {HINT})
"""

_EVALUATE_UNIT_TEST_BODY = """\
** Instructions: **
Given the following question, database schema, a candidate SQL query response, and unit tests, evaluate whether or not the response passes each unit test.

- In your evaluation, you should consider how the responses align with the a given unit test.
- Provide reasoning before you return your evaluation inside the <Thinking> tags.
- At the end of your evaluation, you must finish with a list of verdicts corresponding to each candidate responses in <Answer> tags.
- You must include a verdict with one of these formatted options: 'Passed' or 'Failed'
- Here is an example of the output format:
<Thinking> Your step by step reasoning here.
<Thinking>
<Answer>
Candidate Response #1: Passed
Candidate Response #2: Failed
Candidate Response #3: Passed
....
<Answer>
- Each verdict should be on a new line and correspond to the candidate response in the same order as they are provided.
- Here is the question, database schema, candidate responses, and the unit test to evaluate the responses:

*** Database Schema: **
{DATABASE_SCHEMA}

*** Candidate Clusters: **
{CANDIDATE_QUERIES}

*** Question: **
Question: {QUESTION} (Hint: {HINT})

*** Unit Test: **
{UNIT_TEST}
"""

TEMPLATES: dict[str, PromptTemplate] = {
    t.template_id: t
    for t in (
        PromptTemplate("extract_keywords", _EXTRACT_KEYWORDS_BODY, PYTHON_LIST),
        PromptTemplate("filter_column", _FILTER_COLUMN_BODY, JSON_OBJECT, reask=False),
        PromptTemplate("select_tables", _SELECT_TABLES_BODY, JSON_OBJECT),
        PromptTemplate("select_columns", _SELECT_COLUMNS_BODY, JSON_OBJECT),
        PromptTemplate("generate_candidate", _GENERATE_CANDIDATE_BODY, JSON_OBJECT, reask=False),
        PromptTemplate("revise", _REVISE_BODY, JSON_OBJECT, reask=False),
        PromptTemplate("generate_unit_tests", _GENERATE_UNIT_TESTS_BODY, TAGGED_ANSWER_BLOCK),
        PromptTemplate("evaluate_unit_test", _EVALUATE_UNIT_TEST_BODY, VERDICT_LINES),
    )
}


def render_template(template_id: str, bindings: dict[str, object]) -> str:
    """Substitute placeholder tokens; every token must be bound.

    Rendering is deterministic: the same template and bindings always yield
    the same bytes.
    """
    template = TEMPLATES.get(template_id)
    if template is None:
        raise RenderError(f"unknown template {template_id!r}")
    out = list(template.parts)
    for i in range(1, len(out), 2):
        if out[i] not in bindings:
            raise RenderError(out[i])
        out[i] = str(bindings[out[i]])
    return "".join(out)
