"""Synthetic annotator populations with planted, recoverable ground truth.

Populations are built so that the whole pipeline has a known answer: each
annotator gets background comments with planted disclosure sentences (drawn
from the extraction patterns' own vocabulary, so extraction recovers them),
posts are split into a "marked" conflict topic and neutral topics, and
verdict labels follow a configurable judgment rule. Under the keyed rules,
an annotator's verdict is predictable only through their disclosures, which
is exactly the signal the samplers and the classifier are supposed to find.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import Comment, Corpus, Post, Verdict, write_corpus, write_jsonl
from .disclosure import HighLevelCategory
from .seeds import derive_seed

JUDGMENT_RULES = ("demographic_keyed", "attitude_keyed", "random")

_CATEGORY_NAMES = tuple(c.value for c in HighLevelCategory)


class SynthesisError(ValueError):
    """Infeasible or invalid population specification."""


def _default_mix() -> dict[str, float]:
    return {
        "Demographics": 0.5,
        "Experiences": 0.3,
        "Attitudes": 0.3,
        "Relationships": 0.2,
    }


@dataclass(frozen=True)
class PopulationSpec:
    n_annotators: int = 200
    n_posts: int = 300
    comments_per_annotator: tuple[int, int] = (20, 40)
    verdicts_per_annotator: tuple[int, int] = (20, 30)
    # per-comment probability of planting a sentence of each high-level
    # category; every annotator gets at least one comment per category with
    # a positive rate
    disclosure_mix: dict[str, float] = field(default_factory=_default_mix)
    judgment_rule: str = "demographic_keyed"
    nta_base_rate: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if self.n_annotators < 1 or self.n_posts < 1:
            raise SynthesisError("need at least one annotator and one post")
        lo, hi = self.comments_per_annotator
        if not (0 <= lo <= hi):
            raise SynthesisError(f"bad comments_per_annotator {self.comments_per_annotator}")
        vlo, vhi = self.verdicts_per_annotator
        if not (1 <= vlo <= vhi):
            raise SynthesisError(f"bad verdicts_per_annotator {self.verdicts_per_annotator}")
        if self.judgment_rule not in JUDGMENT_RULES:
            raise SynthesisError(f"unknown judgment rule {self.judgment_rule!r}")
        for name, p in self.disclosure_mix.items():
            if name not in _CATEGORY_NAMES:
                raise SynthesisError(f"unknown category {name!r} in disclosure_mix")
            if not (0.0 <= p <= 1.0):
                raise SynthesisError(f"disclosure_mix[{name!r}] = {p} not a probability")
        if not (0.0 <= self.nta_base_rate <= 1.0):
            raise SynthesisError(f"nta_base_rate {self.nta_base_rate} not a probability")
        if self.judgment_rule != "random" and self.nta_base_rate < 0.5:
            phi = 2.0 * (1.0 - self.nta_base_rate)
            raise SynthesisError(
                f"nta_base_rate {self.nta_base_rate} is infeasible for a keyed rule: "
                f"it would need a marked-post fraction of {phi:.2f} > 1"
            )


# ---------------------------------------------------------------------------
# text material
#
# Planted sentences reuse the trigger vocabulary of the extraction patterns
# (first-person templates), so every plant is recoverable. Distractors avoid
# first-person phrasing entirely. The "young"/"old" demographic bands and the
# "strict"/"lenient" attitude bands each carry their own lexical markers; the
# marked post topic shares tokens with exactly one band's markers, which is
# what makes similarity retrieval able to surface the deciding evidence.

_YOUNG_AGES = (19, 20, 21, 22, 23, 24, 25)
_OLD_AGES = (46, 48, 51, 53, 55, 58, 60)

_DEMOGRAPHIC_TEMPLATES = {
    "young": (
        "I'm {age} and still living in the college dorms.",
        "Im {age} and most of my paycheck goes to college textbooks.",
        "I'm {age}, sharing a place near campus with a college roommate.",
    ),
    "old": (
        "I'm {age} and the mortgage eats half my salary every month.",
        "Im {age} with two kids in high school already.",
        "I'm {age}, juggling the mortgage and school runs for the kids.",
    ),
}

_ATTITUDE_TEMPLATES = {
    "strict": (
        "I think rules are rules and people should follow them.",
        "I believe breaking a promise is never okay, full stop.",
    ),
    "lenient": (
        "I think everyone deserves some slack now and then.",
        "I believe good intentions matter more than strict rules.",
    ),
    None: (
        "I think people should call before visiting.",
        "I believe splitting the bill evenly is the fairest way.",
    ),
}

_EXPERIENCE_TEMPLATES = (
    "I work as a nurse and the night shifts are brutal.",
    "I work at a bakery downtown most mornings.",
    "I have three old bikes rusting in the garage.",
    "I have a battered pickup truck that barely starts.",
    "I like to paint tiny figurines on weekends.",
    "I enjoy long hikes when the trails are quiet.",
)

_RELATIONSHIP_TEMPLATES = (
    "My brother eats my leftovers constantly.",
    "My cousin plans a group trip every single summer.",
    "My aunt keeps forwarding chain emails to the whole family.",
)

_DISTRACTORS = (
    "The bus showed up late again this morning.",
    "That bakery on fifth street finally reopened.",
    "Rain wrecked the weekend plans once again.",
    "The match went to penalties after extra time.",
    "Somebody parked across two spaces yet again.",
    "Traffic on the bridge was backed up for an hour.",
    "The folks next door repainted their place a loud green.",
    "Prices at the corner store keep creeping up.",
    "The elevator has been broken since Tuesday.",
    "A stray cat keeps napping on the porch railing.",
)

# marked topic for demographic_keyed: college life conflict
_MARKED_COLLEGE_TITLES = (
    "AITA for calling out my roommate over the dorm kitchen?",
    "AITA for reporting the campus party next door?",
    "AITA for refusing to split college costs with my roommate?",
)
_MARKED_COLLEGE_BODIES = (
    "My roommate keeps trashing our dorm kitchen after campus parties and "
    "half the college hall is taking sides. I finally reported it to housing.",
    "The campus house next to ours throws college parties on weeknights and "
    "the dorm walls are paper thin. I filed a noise complaint.",
    "My college roommate wants to split every dorm expense evenly even "
    "though the campus meal plan already covers mine.",
)

# marked topic for attitude_keyed: rules and promises conflict
_MARKED_RULES_TITLES = (
    "AITA for holding my friend to the rules of our bet?",
    "AITA for enforcing the house rules on a guest?",
)
_MARKED_RULES_BODIES = (
    "We agreed on the rules beforehand and a promise is a promise, but "
    "everyone says collecting on the bet makes it my fault.",
    "A guest broke the house rules we had written down and a promise got "
    "broken along the way, so there was a confrontation.",
)

_NEUTRAL_TOPICS = (
    (
        "AITA for skipping the wedding toast?",
        "The wedding reception ran long and the venue staff asked the "
        "bridesmaid party to wrap up, so the toast got dropped.",
    ),
    (
        "AITA for flagging overtime at the office?",
        "A manager keeps booking meetings past the deadline crunch and the "
        "printer budget went to overtime snacks instead.",
    ),
    (
        "AITA over the hedge between our driveways?",
        "The hedge along the driveway drops leaves on the lawn next door "
        "and the fence gate keeps swinging into their parking spot.",
    ),
    (
        "AITA for rating the potluck casserole?",
        "The potluck had one casserole and three desserts, and somebody "
        "graded every recipe out loud at the table.",
    ),
)


def _plant_sentence(category: str, band: str | None, rule: str, rng: random.Random) -> str:
    if category == "Demographics":
        if rule == "demographic_keyed" and band in ("young", "old"):
            tpl = rng.choice(_DEMOGRAPHIC_TEMPLATES[band])
            ages = _YOUNG_AGES if band == "young" else _OLD_AGES
        else:
            side = rng.choice(("young", "old"))
            tpl = rng.choice(_DEMOGRAPHIC_TEMPLATES[side])
            ages = _YOUNG_AGES if side == "young" else _OLD_AGES
        return tpl.format(age=rng.choice(ages))
    if category == "Attitudes":
        if rule == "attitude_keyed" and band in ("strict", "lenient"):
            return rng.choice(_ATTITUDE_TEMPLATES[band])
        return rng.choice(_ATTITUDE_TEMPLATES[None])
    if category == "Experiences":
        return rng.choice(_EXPERIENCE_TEMPLATES)
    if category == "Relationships":
        return rng.choice(_RELATIONSHIP_TEMPLATES)
    raise ValueError(f"unknown category {category!r}")


def _bands_for_rule(rule: str) -> tuple[str, str] | None:
    if rule == "demographic_keyed":
        return ("young", "old")
    if rule == "attitude_keyed":
        return ("strict", "lenient")
    return None


def generate_population(spec: PopulationSpec) -> tuple[Corpus, dict[str, dict]]:
    """Build a corpus plus a verdict-key -> planted-truth map.

    Deterministic per seed: every annotator and the post set derive their
    own RNG from (seed, label), so the population is independent of
    iteration order. Keyed rules mark a 2*(1 - nta_base_rate) fraction of
    posts; a verdict is YTA exactly when the post is marked and the
    annotator sits in the rule's keyed band, which makes the empirical NTA
    share concentrate on nta_base_rate.
    """
    rule = spec.judgment_rule
    bands = _bands_for_rule(rule)

    # posts
    rng_posts = random.Random(derive_seed(spec.seed, "posts"))
    if rule == "random":
        n_marked = 0
    else:
        phi = 2.0 * (1.0 - spec.nta_base_rate)
        n_marked = round(phi * spec.n_posts)
    marked_flags = [i < n_marked for i in range(spec.n_posts)]
    rng_posts.shuffle(marked_flags)
    if rule == "attitude_keyed":
        marked_titles, marked_bodies = _MARKED_RULES_TITLES, _MARKED_RULES_BODIES
    else:
        marked_titles, marked_bodies = _MARKED_COLLEGE_TITLES, _MARKED_COLLEGE_BODIES

    posts: dict[str, Post] = {}
    post_marked: dict[str, bool] = {}
    for i in range(spec.n_posts):
        pid = f"p{i:04d}"
        if marked_flags[i]:
            title = rng_posts.choice(marked_titles)
            body = rng_posts.choice(marked_bodies)
        else:
            title, body = rng_posts.choice(_NEUTRAL_TOPICS)
        posts[pid] = Post(id=pid, author_id=f"op{i:04d}", title=title, body=body)
        post_marked[pid] = marked_flags[i]

    # annotators and their comments
    categories = [c for c in _CATEGORY_NAMES if spec.disclosure_mix.get(c, 0.0) > 0.0]
    comments: dict[str, Comment] = {}
    verdicts: list[Verdict] = []
    ground_truth: dict[str, dict] = {}
    comment_counter = 0
    post_ids = sorted(posts)

    for a in range(spec.n_annotators):
        aid = f"a{a:04d}"
        band = bands[a % 2] if bands else None
        rng_a = random.Random(derive_seed(spec.seed, "annotator", aid))

        n_comments = rng_a.randint(*spec.comments_per_annotator)
        plans: list[list[str]] = []
        for _ in range(n_comments):
            plans.append([
                c for c in categories if rng_a.random() < spec.disclosure_mix[c]
            ])
        # guarantee every active category shows up at least once
        if plans:
            for c in categories:
                if not any(c in plan for plan in plans):
                    plans[rng_a.randrange(len(plans))].append(c)

        for plan in plans:
            cid = f"c{comment_counter:06d}"
            comment_counter += 1
            sentences = [rng_a.choice(_DISTRACTORS)]
            for c in _CATEGORY_NAMES:  # fixed order keeps texts deterministic
                if c in plan:
                    sentences.append(_plant_sentence(c, band, rule, rng_a))
            if len(sentences) == 1 and rng_a.random() < 0.5:
                sentences.append(rng_a.choice(_DISTRACTORS))
            comments[cid] = Comment(id=cid, author_id=aid, text=" ".join(sentences))

        # verdicts
        vlo, vhi = spec.verdicts_per_annotator
        n_verdicts = min(rng_a.randint(vlo, vhi), spec.n_posts)
        judged = rng_a.sample(post_ids, n_verdicts)
        for pid in judged:
            if rule == "random":
                label = "NTA" if rng_a.random() < spec.nta_base_rate else "YTA"
            else:
                keyed_band = bands[0]  # young / strict
                label = "YTA" if (post_marked[pid] and band == keyed_band) else "NTA"
            justification = (
                "YTA. Crossed a line there." if label == "YTA"
                else "NTA. Sounds fair to me."
            )
            verdicts.append(Verdict(pid, aid, label, justification))
            ground_truth[f"{pid}|{aid}"] = {
                "label": label,
                "rule": rule,
                "band": band,
                "post_marked": post_marked[pid],
            }

    corpus = Corpus(posts=posts, comments=comments, verdicts=verdicts)
    corpus.check_invariants()
    return corpus, ground_truth


def write_population(corpus: Corpus, ground_truth: dict[str, dict], outdir) -> dict[str, Path]:
    """Write posts/comments/verdicts JSONL (ingest-compatible) plus the
    ground-truth map; returns the file paths."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = write_corpus(corpus, outdir)
    paths["ground_truth"] = outdir / "ground_truth.jsonl"
    write_jsonl(paths["ground_truth"],
                ({"verdict_key": key, **ground_truth[key]} for key in sorted(ground_truth)))
    return paths
