"""Seeded synthetic CSV shaped like the Adult Income census extract.

The columns, roles and label values are those of ``schemas/adult_income.json``.
The categorical vocabularies sum to 128 values, so with the five continuous
columns and one unknown slot per categorical a proper split encodes to 141
features, the width of the real training file. Every category has at least
~0.3% probability, so each one shows up in any proper split of a few thousand
rows and the encoded width does not depend on the seed.

The label is a noisy logistic function of age, education, hours, marital
status, occupation and capital gain, so about a quarter of rows are ``>50K``
and no model can classify every row correctly.
"""

from __future__ import annotations

import csv

import numpy as np

LABEL_VALUES = ("<=50K", ">50K")
ENCODED_WIDTH = 141

_WORKCLASS = ("Private", "Self-emp-not-inc", "Local-gov", "?", "State-gov",
              "Self-emp-inc", "Federal-gov", "Without-pay", "Never-worked")
_EDUCATION = ("Preschool", "1st-4th", "5th-6th", "7th-8th", "9th", "10th", "11th",
              "12th", "HS-grad", "Some-college", "Assoc-voc", "Assoc-acdm",
              "Bachelors", "Masters", "Prof-school", "Doctorate")
_MARITAL = ("Married-civ-spouse", "Never-married", "Divorced", "Separated", "Widowed",
            "Married-spouse-absent", "Married-AF-spouse")
_OCCUPATION = ("Prof-specialty", "Craft-repair", "Exec-managerial", "Adm-clerical",
               "Sales", "Other-service", "Machine-op-inspct", "?", "Transport-moving",
               "Handlers-cleaners", "Farming-fishing", "Tech-support", "Protective-serv",
               "Priv-house-serv", "Armed-Forces")
_RELATIONSHIP = ("Husband", "Not-in-family", "Own-child", "Unmarried", "Wife",
                 "Other-relative")
_RACE = ("White", "Black", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other")
_SEX = ("Male", "Female")
_COUNTRY = ("United-States", "Mexico", "?") + tuple(f"Country-{i:02d}" for i in range(65))

CATEGORICALS = {
    "workclass": _WORKCLASS,
    "education": _EDUCATION,
    "marital-status": _MARITAL,
    "occupation": _OCCUPATION,
    "relationship": _RELATIONSHIP,
    "race": _RACE,
    "sex": _SEX,
    "native-country": _COUNTRY,
}
HEADER = ("age", "workclass", "fnlwgt", "education", "education-num", "marital-status",
          "occupation", "relationship", "race", "sex", "capital-gain", "capital-loss",
          "hours-per-week", "native-country", "income")


def _category_probs(k: int) -> np.ndarray:
    """Skewed like census categories (first value most common) with a floor."""
    zipf = 1.0 / np.arange(1, k + 1) ** 1.2
    p = 0.8 * zipf / zipf.sum() + 0.2 / k
    return p / p.sum()


def make_adult_columns(n: int, seed: int) -> dict[str, np.ndarray]:
    """Draw ``n`` rows as a dict of column arrays (integers and strings)."""
    rng = np.random.default_rng(seed)
    cats = {name: rng.choice(len(vocab), size=n, p=_category_probs(len(vocab)))
            for name, vocab in CATEGORICALS.items()}
    age = np.clip(rng.gamma(6.0, 6.5, size=n) + 10, 17, 90).astype(np.int64)
    hours = np.clip(rng.normal(40.0, 12.0, size=n), 1, 99).astype(np.int64)
    has_gain = rng.random(n) < 0.08
    gain = np.where(has_gain, rng.lognormal(8.5, 1.0, size=n), 0.0).astype(np.int64)
    has_loss = (rng.random(n) < 0.05) & ~has_gain
    loss = np.where(has_loss, rng.normal(1900.0, 350.0, size=n).clip(0), 0.0).astype(np.int64)
    edu_num = cats["education"] + 1

    married = cats["marital-status"] == 0
    skilled = np.isin(cats["occupation"], (0, 2, 11))
    logit = (0.045 * (age - 38.0) + 0.32 * (edu_num - 10.0) + 0.035 * (hours - 40.0)
             + 1.6 * married + 0.8 * skilled + 1.2 * has_gain - 1.9
             + rng.logistic(0.0, 1.0, size=n))
    return {
        "age": age,
        "workclass": np.asarray(_WORKCLASS)[cats["workclass"]],
        "fnlwgt": rng.integers(12_000, 1_500_000, size=n),
        "education": np.asarray(_EDUCATION)[cats["education"]],
        "education-num": edu_num,
        "marital-status": np.asarray(_MARITAL)[cats["marital-status"]],
        "occupation": np.asarray(_OCCUPATION)[cats["occupation"]],
        "relationship": np.asarray(_RELATIONSHIP)[cats["relationship"]],
        "race": np.asarray(_RACE)[cats["race"]],
        "sex": np.asarray(_SEX)[cats["sex"]],
        "capital-gain": gain,
        "capital-loss": loss,
        "hours-per-week": hours,
        "native-country": np.asarray(_COUNTRY)[cats["native-country"]],
        "income": np.asarray(LABEL_VALUES)[(logit > 0.0).astype(np.int64)],
    }


def write_adult_csv(path: str, n: int, seed: int) -> None:
    """Write ``n`` Adult-shaped rows to ``path``."""
    cols = make_adult_columns(n, seed)
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(HEADER)
        writer.writerows(zip(*(cols[name].tolist() for name in HEADER)))
