"""Byte-level pin of the aggregate report in both formats.

A fixed hand-built record list (two models, a blank location, a dataset
without robustness values, and a degenerate comparison) is aggregated,
compared and emitted; the files must match the text below exactly.
"""

from ulsforge import EvalRecord, aggregate_by_location, compare_models, emit_report


def rec(lid, model, d, rob, loc, dataset):
    return EvalRecord(lesion_id=lid, model_id=model, dice=d, robustness=rob,
                      location=loc, dataset=dataset)


MODEL_A = [rec("l1", "model-a", 0.5, 0.75, "liver", "ds1"),
           rec("l2", "model-a", 0.3, 0.6, "", "ds1"),
           rec("l3", "model-a", 0.9, 0.8, "lung", "ds1"),
           rec("l4", "model-a", 0.7, None, "liver", "ds2"),
           rec("l5", "model-a", 0.1, None, "", "ds2")]
# same robustness as model-a on ds1, so that comparison is degenerate
MODEL_B = [rec("l1", "model-b", 0.6, 0.75, "liver", "ds1"),
           rec("l2", "model-b", 0.45, 0.6, "", "ds1"),
           rec("l3", "model-b", 0.85, 0.8, "lung", "ds1"),
           rec("l4", "model-b", 0.8, None, "liver", "ds2"),
           rec("l5", "model-b", 0.3, None, "", "ds2")]

EXPECTED_CSV = """\
# k: 2
# seed_root: 3
# voi_size: [32, 32, 16]
model_id,location,n,dice_mean,dice_std,robustness_mean,robustness_std,robustness_n
model-a,liver,2,0.6,0.14142135623730948,0.75,0.0,1
model-a,lung,1,0.9,0.0,0.8,0.0,1
model-a,undefined,2,0.2,0.1414213562373095,0.6,0.0,1
model-a,(all),5,0.5000000000000001,0.31622776601683794,0.7166666666666668,0.10408329997330666,3
model-b,liver,2,0.7,0.14142135623730953,0.75,0.0,1
model-b,lung,1,0.85,0.0,0.8,0.0,1
model-b,undefined,2,0.375,0.10606601717798214,0.6,0.0,1
model-b,(all),5,0.6,0.23184046238739262,0.7166666666666668,0.10408329997330666,3
# summary: model x dataset
model_id,dataset,n,dice_mean,dice_std,robustness_mean,robustness_std,robustness_n
model-a,ds1,3,0.5666666666666668,0.3055050463303894,0.7166666666666668,0.10408329997330666,3
model-a,ds2,2,0.39999999999999997,0.42426406871192845,,,0
model-b,ds1,3,0.6333333333333333,0.20207259421636903,0.7166666666666668,0.10408329997330666,3
model-b,ds2,2,0.55,0.3535533905932738,,,0
# comparisons
comparison_id,n_pairs,t_stat,df,p_two_tailed,p_adjusted,significant,degenerate
ds1:dice,3,-1.1094003924504576,2,0.38278660015163257,1.0,False,False
ds1:robustness,3,,2,,,False,True
ds2:dice,2,-3.0000000000000036,1,0.20483276469913325,0.6144982940973998,False,False
"""

EXPECTED_JSON = """\
{
  "metadata": {
    "seed_root": 3,
    "k": 2,
    "voi_size": [
      32,
      32,
      16
    ]
  },
  "groups": [
    {
      "model_id": "model-a",
      "location": "liver",
      "n": 2,
      "dice_mean": 0.6,
      "dice_std": 0.14142135623730948,
      "robustness_mean": 0.75,
      "robustness_std": 0.0,
      "robustness_n": 1
    },
    {
      "model_id": "model-a",
      "location": "lung",
      "n": 1,
      "dice_mean": 0.9,
      "dice_std": 0.0,
      "robustness_mean": 0.8,
      "robustness_std": 0.0,
      "robustness_n": 1
    },
    {
      "model_id": "model-a",
      "location": "undefined",
      "n": 2,
      "dice_mean": 0.2,
      "dice_std": 0.1414213562373095,
      "robustness_mean": 0.6,
      "robustness_std": 0.0,
      "robustness_n": 1
    },
    {
      "model_id": "model-a",
      "location": "(all)",
      "n": 5,
      "dice_mean": 0.5000000000000001,
      "dice_std": 0.31622776601683794,
      "robustness_mean": 0.7166666666666668,
      "robustness_std": 0.10408329997330666,
      "robustness_n": 3
    },
    {
      "model_id": "model-b",
      "location": "liver",
      "n": 2,
      "dice_mean": 0.7,
      "dice_std": 0.14142135623730953,
      "robustness_mean": 0.75,
      "robustness_std": 0.0,
      "robustness_n": 1
    },
    {
      "model_id": "model-b",
      "location": "lung",
      "n": 1,
      "dice_mean": 0.85,
      "dice_std": 0.0,
      "robustness_mean": 0.8,
      "robustness_std": 0.0,
      "robustness_n": 1
    },
    {
      "model_id": "model-b",
      "location": "undefined",
      "n": 2,
      "dice_mean": 0.375,
      "dice_std": 0.10606601717798214,
      "robustness_mean": 0.6,
      "robustness_std": 0.0,
      "robustness_n": 1
    },
    {
      "model_id": "model-b",
      "location": "(all)",
      "n": 5,
      "dice_mean": 0.6,
      "dice_std": 0.23184046238739262,
      "robustness_mean": 0.7166666666666668,
      "robustness_std": 0.10408329997330666,
      "robustness_n": 3
    }
  ],
  "summary": [
    {
      "model_id": "model-a",
      "dataset": "ds1",
      "n": 3,
      "dice_mean": 0.5666666666666668,
      "dice_std": 0.3055050463303894,
      "robustness_mean": 0.7166666666666668,
      "robustness_std": 0.10408329997330666,
      "robustness_n": 3
    },
    {
      "model_id": "model-a",
      "dataset": "ds2",
      "n": 2,
      "dice_mean": 0.39999999999999997,
      "dice_std": 0.42426406871192845,
      "robustness_mean": null,
      "robustness_std": null,
      "robustness_n": 0
    },
    {
      "model_id": "model-b",
      "dataset": "ds1",
      "n": 3,
      "dice_mean": 0.6333333333333333,
      "dice_std": 0.20207259421636903,
      "robustness_mean": 0.7166666666666668,
      "robustness_std": 0.10408329997330666,
      "robustness_n": 3
    },
    {
      "model_id": "model-b",
      "dataset": "ds2",
      "n": 2,
      "dice_mean": 0.55,
      "dice_std": 0.3535533905932738,
      "robustness_mean": null,
      "robustness_std": null,
      "robustness_n": 0
    }
  ],
  "comparisons": [
    {
      "comparison_id": "ds1:dice",
      "n_pairs": 3,
      "t_stat": -1.1094003924504576,
      "df": 2,
      "p_two_tailed": 0.38278660015163257,
      "p_adjusted": 1.0,
      "significant": false,
      "degenerate": false
    },
    {
      "comparison_id": "ds1:robustness",
      "n_pairs": 3,
      "t_stat": null,
      "df": 2,
      "p_two_tailed": null,
      "p_adjusted": null,
      "significant": false,
      "degenerate": true
    },
    {
      "comparison_id": "ds2:dice",
      "n_pairs": 2,
      "t_stat": -3.0000000000000036,
      "df": 1,
      "p_two_tailed": 0.20483276469913325,
      "p_adjusted": 0.6144982940973998,
      "significant": false,
      "degenerate": false
    }
  ],
  "records": []
}
"""


def fixed_report():
    report = aggregate_by_location(MODEL_A + MODEL_B,
                                   {"seed_root": 3, "k": 2, "voi_size": [32, 32, 16]})
    report.comparisons = compare_models(MODEL_A, MODEL_B)
    report.records = []
    return report


def test_csv_report_bytes(tmp_path):
    out = tmp_path / "report.csv"
    emit_report(fixed_report(), "csv", out)
    assert out.read_text(encoding="utf-8") == EXPECTED_CSV


def test_json_report_bytes(tmp_path):
    out = tmp_path / "report.json"
    emit_report(fixed_report(), "json", out)
    assert out.read_text(encoding="utf-8") == EXPECTED_JSON
