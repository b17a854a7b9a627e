//! The serving edge's JSON wire format.
//!
//! Decoders turn parsed [`Json`] documents into engine types
//! ([`RecommendRequest`], [`BulkRequest`], [`FeedbackEvent`]s);
//! encoders turn [`Recommendation`]s back into response bodies. Both
//! directions are hand-rolled over [`crate::json`] and never panic —
//! every malformed shape maps to a [`WireError`] the HTTP layer
//! answers with a 4xx.
//!
//! Scores travel as shortest-round-trip `f64` literals, so a
//! recommendation decoded from the wire is *bit-identical* to the
//! in-process one — the e2e tests compare `f64::to_bits`.

use crate::json::{self, Json};
use evorec_adapt::{FeedbackEvent, Reaction};
use evorec_core::{Item, Recommendation, ScoredItem, UserId};
use evorec_kb::TermId;
use evorec_measures::{MeasureCategory, MeasureId};

/// A malformed request body: `field` names the offending field (or
/// pseudo-field like `events[3].reaction`), `message` says what was
/// wrong with it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Dotted path of the offending field.
    pub field: String,
    /// What was wrong.
    pub message: String,
}

impl WireError {
    fn new(field: impl Into<String>, message: impl Into<String>) -> WireError {
        WireError { field: field.into(), message: message.into() }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.field, self.message)
    }
}

impl std::error::Error for WireError {}

/// `POST /v1/recommend` — one user against one window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecommendRequest {
    /// The curator to serve.
    pub user: UserId,
    /// The window name to serve against.
    pub window: String,
}

/// Decode a [`RecommendRequest`] from a parsed body.
pub fn decode_recommend(doc: &Json) -> Result<RecommendRequest, WireError> {
    let user = doc
        .get("user")
        .ok_or_else(|| WireError::new("user", "missing"))?
        .as_u32()
        .ok_or_else(|| WireError::new("user", "must be an integer in u32 range"))?;
    let window = doc
        .get("window")
        .ok_or_else(|| WireError::new("window", "missing"))?
        .as_str()
        .ok_or_else(|| WireError::new("window", "must be a string"))?;
    Ok(RecommendRequest { user: UserId(user), window: window.to_string() })
}

/// One row of a bulk request: either a decoded user or a row-local
/// error (the edge answers good rows and reports bad ones in place,
/// per-row status instead of all-or-nothing).
pub type BulkRow = Result<UserId, WireError>;

/// `POST /v1/recommend/bulk` — many users against one shared window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BulkRequest {
    /// The shared window name.
    pub window: String,
    /// Per-row decode outcomes, aligned with the request array.
    pub rows: Vec<BulkRow>,
}

/// Upper bound on bulk rows per request; beyond this the whole body
/// is rejected (the admission layer bounds work per request, not
/// just requests).
pub const MAX_BULK_ROWS: usize = 4096;

/// Decode a [`BulkRequest`]. Rows may be bare integers (`7`) or
/// objects (`{"user": 7}`); a bad row becomes a row-local error.
pub fn decode_bulk(doc: &Json) -> Result<BulkRequest, WireError> {
    let window = doc
        .get("window")
        .ok_or_else(|| WireError::new("window", "missing"))?
        .as_str()
        .ok_or_else(|| WireError::new("window", "must be a string"))?;
    let users = doc
        .get("users")
        .ok_or_else(|| WireError::new("users", "missing"))?
        .as_arr()
        .ok_or_else(|| WireError::new("users", "must be an array"))?;
    if users.len() > MAX_BULK_ROWS {
        return Err(WireError::new(
            "users",
            format!("too many rows ({} > {MAX_BULK_ROWS})", users.len()),
        ));
    }
    let rows = users
        .iter()
        .enumerate()
        .map(|(i, row)| {
            let field = || format!("users[{i}]");
            let raw = match row {
                Json::Num(_) => row.as_u32(),
                Json::Obj(_) => row
                    .get("user")
                    .ok_or_else(|| WireError::new(field(), "missing user"))?
                    .as_u32(),
                _ => return Err(WireError::new(field(), "must be an integer or object")),
            };
            raw.map(UserId)
                .ok_or_else(|| WireError::new(field(), "user must be an integer in u32 range"))
        })
        .collect();
    Ok(BulkRequest { window: window.to_string(), rows })
}

/// Upper bound on feedback events per request.
pub const MAX_FEEDBACK_EVENTS: usize = 4096;

/// Decode `POST /v1/feedback` — a strict batch: any malformed event
/// rejects the whole body (feedback mutates profiles; partial,
/// silently-dropped batches would be unauditable).
pub fn decode_feedback(doc: &Json) -> Result<Vec<FeedbackEvent>, WireError> {
    let events = doc
        .get("events")
        .ok_or_else(|| WireError::new("events", "missing"))?
        .as_arr()
        .ok_or_else(|| WireError::new("events", "must be an array"))?;
    if events.len() > MAX_FEEDBACK_EVENTS {
        return Err(WireError::new(
            "events",
            format!("too many events ({} > {MAX_FEEDBACK_EVENTS})", events.len()),
        ));
    }
    events
        .iter()
        .enumerate()
        .map(|(i, ev)| decode_event(ev, i))
        .collect()
}

fn decode_event(ev: &Json, i: usize) -> Result<FeedbackEvent, WireError> {
    let field = |name: &str| format!("events[{i}].{name}");
    let user = ev
        .get("user")
        .and_then(Json::as_u32)
        .ok_or_else(|| WireError::new(field("user"), "must be an integer in u32 range"))?;
    let measure = ev
        .get("measure")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::new(field("measure"), "must be a string"))?;
    let category_label = ev
        .get("category")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::new(field("category"), "must be a string"))?;
    let category = MeasureCategory::from_label(category_label).ok_or_else(|| {
        WireError::new(field("category"), format!("unknown category '{category_label}'"))
    })?;
    let focus = ev
        .get("focus")
        .and_then(Json::as_u32)
        .ok_or_else(|| WireError::new(field("focus"), "must be an integer in u32 range"))?;
    let intensity = ev
        .get("intensity")
        .and_then(Json::as_f64)
        .ok_or_else(|| WireError::new(field("intensity"), "must be a number"))?;
    if !intensity.is_finite() {
        return Err(WireError::new(field("intensity"), "must be finite"));
    }
    let reaction_label = ev
        .get("reaction")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::new(field("reaction"), "must be a string"))?;
    let reaction = Reaction::parse(reaction_label).ok_or_else(|| {
        WireError::new(field("reaction"), format!("unknown reaction '{reaction_label}'"))
    })?;
    let item = Item {
        measure: MeasureId::new(measure),
        category,
        focus: TermId::from_u32(focus),
        intensity,
    };
    let mut event = FeedbackEvent::new(UserId(user), item, reaction);
    if let Some(session) = ev.get("session") {
        let session = session
            .as_u64()
            .ok_or_else(|| WireError::new(field("session"), "must be an unsigned integer"))?;
        event = event.in_session(session);
    }
    if let Some(window) = ev.get("window") {
        let window = window
            .as_str()
            .ok_or_else(|| WireError::new(field("window"), "must be a string"))?;
        event = event.from_window(window);
    }
    Ok(event)
}

/// Encode one recommendation row (shared by the single and bulk
/// responses): `{"user":…,"window":…,"status":"ok","items":[…],
/// "candidates_considered":…}`.
pub fn encode_recommendation(
    user: UserId,
    window: &str,
    rec: &Recommendation,
    out: &mut String,
) {
    out.push_str("{\"user\":");
    out.push_str(&user.0.to_string());
    out.push_str(",\"window\":");
    json::push_str_lit(window, out);
    out.push_str(",\"status\":\"ok\",\"items\":[");
    for (i, item) in rec.items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        encode_item(item, out);
    }
    out.push_str("],\"candidates_considered\":");
    out.push_str(&rec.candidates_considered.to_string());
    out.push('}');
}

fn encode_item(scored: &ScoredItem, out: &mut String) {
    out.push_str("{\"measure\":");
    json::push_str_lit(&scored.item.measure.0, out);
    out.push_str(",\"category\":");
    json::push_str_lit(scored.item.category.label(), out);
    out.push_str(",\"focus\":");
    out.push_str(&scored.item.focus.as_u32().to_string());
    out.push_str(",\"intensity\":");
    json::push_f64(scored.item.intensity, out);
    out.push_str(",\"relevance\":");
    json::push_f64(scored.relevance, out);
    out.push_str(",\"novelty\":");
    json::push_f64(scored.novelty, out);
    out.push_str(",\"objective\":");
    json::push_f64(scored.objective, out);
    out.push('}');
}

/// Encode a row-local error for the bulk response:
/// `{"user":null,"status":"error","error":"…"}` (with the user id
/// when the row at least decoded that far).
pub fn encode_row_error(err: &WireError, out: &mut String) {
    out.push_str("{\"status\":\"error\",\"error\":");
    json::push_str_lit(&err.to_string(), out);
    out.push('}');
}

/// Decode a recommendation row produced by [`encode_recommendation`]
/// back into scored items — the test-side half of the bit-identity
/// check (and what a Rust client of the edge would run).
pub fn decode_items(row: &Json) -> Result<Vec<ScoredItem>, WireError> {
    let items = row
        .get("items")
        .ok_or_else(|| WireError::new("items", "missing"))?
        .as_arr()
        .ok_or_else(|| WireError::new("items", "must be an array"))?;
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let field = |name: &str| format!("items[{i}].{name}");
            let str_of = |name: &str| {
                item.get(name)
                    .and_then(Json::as_str)
                    .ok_or_else(|| WireError::new(field(name), "must be a string"))
            };
            let num_of = |name: &str| {
                item.get(name)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| WireError::new(field(name), "must be a number"))
            };
            let category_label = str_of("category")?;
            let category = MeasureCategory::from_label(category_label).ok_or_else(|| {
                WireError::new(field("category"), format!("unknown category '{category_label}'"))
            })?;
            let focus = item
                .get("focus")
                .and_then(Json::as_u32)
                .ok_or_else(|| WireError::new(field("focus"), "must be a u32"))?;
            Ok(ScoredItem {
                item: Item {
                    measure: MeasureId::new(str_of("measure")?),
                    category,
                    focus: TermId::from_u32(focus),
                    intensity: num_of("intensity")?,
                },
                relevance: num_of("relevance")?,
                novelty: num_of("novelty")?,
                objective: num_of("objective")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(text: &str) -> Json {
        json::parse(text.as_bytes()).expect("test doc parses")
    }

    #[test]
    fn recommend_decodes_and_rejects() {
        let ok = decode_recommend(&doc(r#"{"user": 3, "window": "sliding"}"#));
        assert_eq!(ok, Ok(RecommendRequest { user: UserId(3), window: "sliding".into() }));
        assert!(decode_recommend(&doc(r#"{"window": "w"}"#)).is_err());
        assert!(decode_recommend(&doc(r#"{"user": -1, "window": "w"}"#)).is_err());
        assert!(decode_recommend(&doc(r#"{"user": 1.5, "window": "w"}"#)).is_err());
    }

    #[test]
    fn bulk_keeps_row_errors_local() {
        let req = decode_bulk(&doc(
            r#"{"window": "w", "users": [1, {"user": 2}, "nope", {"user": -3}]}"#,
        ))
        .expect("body decodes");
        assert_eq!(req.window, "w");
        assert_eq!(req.rows.len(), 4);
        assert_eq!(req.rows[0], Ok(UserId(1)));
        assert_eq!(req.rows[1], Ok(UserId(2)));
        assert!(req.rows[2].is_err());
        assert!(req.rows[3].is_err());
    }

    #[test]
    fn feedback_is_strict() {
        let good = decode_feedback(&doc(
            r#"{"events": [{"user": 1, "measure": "m:churn", "category": "counting",
                "focus": 9, "intensity": 0.5, "reaction": "accept",
                "session": 4, "window": "sliding"}]}"#,
        ))
        .expect("decodes");
        assert_eq!(good.len(), 1);
        assert_eq!(good[0].user, UserId(1));
        assert_eq!(good[0].session, 4);
        assert_eq!(good[0].window.as_deref(), Some("sliding"));

        let bad = decode_feedback(&doc(
            r#"{"events": [{"user": 1, "measure": "m", "category": "counting",
                "focus": 9, "intensity": 0.5, "reaction": "meh"}]}"#,
        ));
        let err = bad.expect_err("unknown reaction rejects the batch");
        assert_eq!(err.field, "events[0].reaction");
    }

    #[test]
    fn recommendation_round_trips_bitwise() {
        let rec = Recommendation {
            items: vec![ScoredItem {
                item: Item {
                    measure: MeasureId::new("m:x"),
                    category: MeasureCategory::ChangeCounting,
                    focus: TermId::from_u32(17),
                    intensity: 1.0 / 3.0,
                },
                relevance: 0.1 + 0.2,
                novelty: f64::MIN_POSITIVE,
                objective: 0.7654321,
            }],
            candidates_considered: 41,
        };
        let mut body = String::new();
        encode_recommendation(UserId(5), "w", &rec, &mut body);
        let parsed = doc(&body);
        assert_eq!(parsed.get("user").and_then(Json::as_u32), Some(5));
        assert_eq!(
            parsed.get("candidates_considered").and_then(Json::as_u64),
            Some(41)
        );
        let items = decode_items(&parsed).expect("items decode");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].item, rec.items[0].item);
        for (a, b) in [
            (items[0].relevance, rec.items[0].relevance),
            (items[0].novelty, rec.items[0].novelty),
            (items[0].objective, rec.items[0].objective),
            (items[0].item.intensity, rec.items[0].item.intensity),
        ] {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
