//! bulk-materialize — the payload path. A union view covers three
//! daemons serving documents whose replies exceed the reply-parse memo's
//! 1 MiB entry cap, plus one `StreamingWrapper` over a generated file.
//! Every operation materializes the whole view, so each serializes,
//! ships and parses every member document in full.

use crate::serving::{Inputs, SourceInput};
use mix_dtd::generate::{write_sized_document, ChunkedDocConfig};
use mix_dtd::Dtd;
use std::path::Path;

/// Compact document sizes of the three daemons. Each daemon's reply is
/// the whole document, pretty-printed, which makes every reply larger
/// than the 1 MiB entry cap (checked when the inputs are generated).
const DAEMON_BYTES: [u64; 3] = [900_000, 870_000, 850_000];
const STREAM_BYTES: u64 = 300_000;

/// `RemoteWrapper`'s reply-parse memo does not admit larger replies.
const MEMO_MAX_ENTRY: usize = 1 << 20;

fn sized(dtd: &Dtd, seed: u64, bytes: u64) -> String {
    let mut out = Vec::new();
    write_sized_document(
        dtd,
        seed,
        ChunkedDocConfig {
            target_bytes: bytes,
            max_subtree_bytes: 4 << 10,
            ..ChunkedDocConfig::default()
        },
        &mut out,
    )
    .expect("writing to memory cannot fail");
    String::from_utf8(out).expect("generated documents are UTF-8")
}

pub fn inputs(seed: u64, workdir: &Path) -> Result<Inputs, String> {
    let d1 = mix_dtd::paper::d1_department();
    let d11 = mix_dtd::paper::d11_department();
    let mut sources = Vec::new();
    let mut parts = Vec::new();
    let members = "m = SELECT P WHERE <department> P:<professor | gradStudent/> </department>";
    for (i, bytes) in DAEMON_BYTES.into_iter().enumerate() {
        let name = format!("big{i}");
        let doc = sized(&d1, seed.wrapping_add(i as u64), bytes);
        let reply = mix_xml::parse_document(&doc)
            .map(|d| mix_xml::write_document(&d, mix_xml::WriteConfig::default()).len())
            .map_err(|e| format!("{name}: {e}"))?;
        if reply <= MEMO_MAX_ENTRY {
            return Err(format!("{name}: a {reply}-byte reply fits the parse memo"));
        }
        parts.push((name.clone(), members.to_owned()));
        sources.push((
            name,
            SourceInput::Daemon {
                dtd: d1.clone(),
                doc,
            },
        ));
    }
    // the streaming member's definition is streamable (no `!=`)
    let doc = sized(&d11, seed.wrapping_add(7), STREAM_BYTES);
    std::fs::create_dir_all(workdir).map_err(|e| format!("{}: {e}", workdir.display()))?;
    let path = workdir.join("stream.xml");
    std::fs::write(&path, &doc).map_err(|e| format!("{}: {e}", path.display()))?;
    parts.push((
        "stream".to_owned(),
        "m = SELECT P WHERE <department> P:<professor/> </department>".to_owned(),
    ));
    sources.push((
        "stream".to_owned(),
        SourceInput::Stream {
            dtd: d11,
            path,
            doc,
        },
    ));
    let texts: Vec<String> = [
        "ans = SELECT X WHERE <bulk> X:<professor/> </bulk>",
        "ans = SELECT X WHERE <bulk> X:<professor | gradStudent/> </bulk>",
        "ans = SELECT X WHERE <bulk> <professor> X:<publication/> </professor> </bulk>",
        "ans = SELECT X WHERE <bulk> X:<professor> <publication><journal/></publication> </professor> </bulk>",
    ]
    .into_iter()
    .map(str::to_owned)
    .collect();
    Ok(Inputs {
        sources,
        views: Vec::new(),
        unions: vec![("bulk".to_owned(), parts)],
        weights: vec![1.0; texts.len()],
        texts,
        // the mediator fetches the four members in parallel, so one
        // operation already keeps both cores busy; a second client would
        // add the two operations' contention to every latency
        clients: 1,
        warmup_ops: 4,
        setups: 1,
        seed,
    })
}
